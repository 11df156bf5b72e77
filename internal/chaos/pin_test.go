package chaos_test

import (
	"testing"

	"amosim/internal/chaos"
	"amosim/internal/config"
	"amosim/internal/syncprim"
)

// pinSpec is the fixed hostile-level trial behind the pinned digests: one
// mechanism on one backend under level-2 fault injection.
func pinSpec(mech syncprim.Mechanism, backend config.Backend) chaos.TrialSpec {
	return chaos.TrialSpec{
		Seed: 77, Mech: mech, Procs: 8,
		Vars: 3, Ops: 5, Episodes: 2, LockPasses: 2, Level: 2,
		Backend: backend,
	}
}

// pinKey names one pinned trial: backend, mechanism, and whether Squeeze
// shrinks the caches and sync tables so entries spill all the time.
type pinKey struct {
	backend config.Backend
	mech    syncprim.Mechanism
	squeeze bool
}

// pinnedDigests are the expected trace digests of pinSpec for every
// mechanism × backend × squeeze, generated once and checked in. A drift
// means some mechanism's message-level behavior changed — timing, protocol
// traffic, or schedule interleaving — which must be a deliberate, reviewed
// change, not a side effect. Cells that never reach the memory-side unit
// agree across amo and syncron; dsm has no caches for Squeeze to shrink.
var pinnedDigests = map[pinKey]string{
	{config.BackendAMO, syncprim.LLSC, false}:          "dc98357535f5e7f6565e00b6e6994f8c592ff15e39447cb3cc022ba5067ef1d6",
	{config.BackendAMO, syncprim.LLSC, true}:           "385b6b5618f48fc992360b5ee57d18994c030095f073a21c31a1eb0715e94ac9",
	{config.BackendAMO, syncprim.Atomic, false}:        "dbd53716582706a16dd2e43f89932cd4b8ef12adb5958d8bed842f48be1f018f",
	{config.BackendAMO, syncprim.Atomic, true}:         "4be3538f1255720a1d2b060e5ec6333e5e1ca41e7eb11f5406958a44e836cb87",
	{config.BackendAMO, syncprim.ActMsg, false}:        "0d90b597abadf2d96ae7c901a3d5a8ec0ca311f3e7f7792cb3e0546c262be49e",
	{config.BackendAMO, syncprim.ActMsg, true}:         "f0985dc8ad1ea2f5d9132abdaeaff0ab4b04650b6473f93fa189ace4430d6d2f",
	{config.BackendAMO, syncprim.MAO, false}:           "b6aa4881a419659c8fad7b3169772c7aafffd9e4497dae16de9f98d884d4af05",
	{config.BackendAMO, syncprim.MAO, true}:            "1c5943ba3b989c7fc6b08b9ffc86b9fcd73f60e84b4a2b50c6223cf421ad47ab",
	{config.BackendAMO, syncprim.AMO, false}:           "a6e4f48801836ca243873a99779eae7b98c75b8ab44d1e5032bb4dcb3a25ac07",
	{config.BackendAMO, syncprim.AMO, true}:            "84c584d821476cc27c14d40315282a1d88f94f4334585183de154f2211327867",
	{config.BackendAMO, syncprim.Combining, false}:     "e0d58fe3933b600e391f49469a24a2bd922eeeb031da4e68e2cadb9630ba450f",
	{config.BackendAMO, syncprim.Combining, true}:      "0c57896c19aa49c73a295234152864cdfb46eef91c233e05253aaf3ef7ba8d61",
	{config.BackendSynCron, syncprim.LLSC, false}:      "dc98357535f5e7f6565e00b6e6994f8c592ff15e39447cb3cc022ba5067ef1d6",
	{config.BackendSynCron, syncprim.LLSC, true}:       "385b6b5618f48fc992360b5ee57d18994c030095f073a21c31a1eb0715e94ac9",
	{config.BackendSynCron, syncprim.Atomic, false}:    "dbd53716582706a16dd2e43f89932cd4b8ef12adb5958d8bed842f48be1f018f",
	{config.BackendSynCron, syncprim.Atomic, true}:     "4be3538f1255720a1d2b060e5ec6333e5e1ca41e7eb11f5406958a44e836cb87",
	{config.BackendSynCron, syncprim.ActMsg, false}:    "0d90b597abadf2d96ae7c901a3d5a8ec0ca311f3e7f7792cb3e0546c262be49e",
	{config.BackendSynCron, syncprim.ActMsg, true}:     "f0985dc8ad1ea2f5d9132abdaeaff0ab4b04650b6473f93fa189ace4430d6d2f",
	{config.BackendSynCron, syncprim.MAO, false}:       "eb3c2d1ced58e1ac2d51207ba0c44763a151786bb51f0126bba03f6bd83cdff3",
	{config.BackendSynCron, syncprim.MAO, true}:        "a91a4f1aac6b9cf376ab9b525e11e4dea116a70647690fe484ce95e383a7d1b9",
	{config.BackendSynCron, syncprim.AMO, false}:       "bb8989e5642807b5681c2adfef122b1cbb5c852fa79c4e7da5f052e2c3b69fbf",
	{config.BackendSynCron, syncprim.AMO, true}:        "8ff91c01173f715bdaf011bbb1223eef2c1d4a29c7c50e60f849a3388d6a3ee0",
	{config.BackendSynCron, syncprim.Combining, false}: "e0d58fe3933b600e391f49469a24a2bd922eeeb031da4e68e2cadb9630ba450f",
	{config.BackendSynCron, syncprim.Combining, true}:  "0c57896c19aa49c73a295234152864cdfb46eef91c233e05253aaf3ef7ba8d61",
	{config.BackendDSM, syncprim.LLSC, false}:          "fa7b464b7b0c4ab73c4ede999b8bc00bfa5c9ed19b19db65079cfded88cb114b",
	{config.BackendDSM, syncprim.LLSC, true}:           "fa7b464b7b0c4ab73c4ede999b8bc00bfa5c9ed19b19db65079cfded88cb114b",
	{config.BackendDSM, syncprim.Atomic, false}:        "f9ec0260d279fa8f9dd160f99e00a7b099d54ad50086195f6ef2de1d66749b14",
	{config.BackendDSM, syncprim.Atomic, true}:         "f9ec0260d279fa8f9dd160f99e00a7b099d54ad50086195f6ef2de1d66749b14",
	{config.BackendDSM, syncprim.ActMsg, false}:        "547b9ac3e78d9217893af03156c8905859676a52c7f4e76c2246831e5f6f4b69",
	{config.BackendDSM, syncprim.ActMsg, true}:         "547b9ac3e78d9217893af03156c8905859676a52c7f4e76c2246831e5f6f4b69",
	{config.BackendDSM, syncprim.MAO, false}:           "f9ec0260d279fa8f9dd160f99e00a7b099d54ad50086195f6ef2de1d66749b14",
	{config.BackendDSM, syncprim.MAO, true}:            "f9ec0260d279fa8f9dd160f99e00a7b099d54ad50086195f6ef2de1d66749b14",
	{config.BackendDSM, syncprim.AMO, false}:           "70329b4fd6dd973a3b8d6ec6896bb71a8021a891b86f3ddf48789041e44be736",
	{config.BackendDSM, syncprim.AMO, true}:            "70329b4fd6dd973a3b8d6ec6896bb71a8021a891b86f3ddf48789041e44be736",
	{config.BackendDSM, syncprim.Combining, false}:     "609c4bddc4421164f5d2e081959778d302884d286557808258c1006d664d6f93",
	{config.BackendDSM, syncprim.Combining, true}:      "609c4bddc4421164f5d2e081959778d302884d286557808258c1006d664d6f93",
}

// TestPinnedDigests replays every pinned trial and demands the checked-in
// digest byte for byte.
func TestPinnedDigests(t *testing.T) {
	if want := len(config.Backends) * len(syncprim.AllMechanisms) * 2; len(pinnedDigests) != want {
		t.Fatalf("%d pinned digests, want %d", len(pinnedDigests), want)
	}
	for _, backend := range config.Backends {
		for _, mech := range syncprim.AllMechanisms {
			for _, squeeze := range []bool{false, true} {
				key := pinKey{backend, mech, squeeze}
				name := backend.String() + "/" + mech.String() + "/plain"
				if squeeze {
					name = backend.String() + "/" + mech.String() + "/squeeze"
				}
				t.Run(name, func(t *testing.T) {
					spec := pinSpec(mech, backend)
					spec.Squeeze = squeeze
					res, err := chaos.RunTrial(spec)
					if err != nil {
						t.Fatal(err)
					}
					if want := pinnedDigests[key]; res.Digest != want {
						t.Fatalf("digest drifted:\n got %s\nwant %s\n[replay: %s]", res.Digest, want, res.Spec)
					}
				})
			}
		}
	}
}
