package amosim

import (
	"fmt"

	"amosim/internal/stats"
	"amosim/internal/workload"
)

// The open-loop traffic experiment: irregular request workloads (graph
// traversals, producer-consumer queues, fetch-add MPMC rings) driven by a
// deterministic arrival process at a ladder of offered rates, reporting
// sojourn-time percentiles per mechanism. Where the closed-loop tables ask
// "how many cycles does a primitive cost?", the traffic table asks the
// queueing question: "at what offered load does each mechanism saturate,
// and what latency does a request see before that?"

// TrafficApps lists the open-loop traffic workloads in presentation order.
var TrafficApps = workload.TrafficApps

// TrafficRates is the default offered-rate ladder (requests per 1000
// cycles machine-wide): below, near, and beyond the default machines'
// service capacity, so the saturation point lands inside the ladder.
var TrafficRates = []int{2, 8, 32}

// TrafficMechs is the default mechanism pair: the LL/SC software baseline
// against the paper's AMOs.
var TrafficMechs = []Mechanism{LLSC, AMO}

// TrafficExperiment is the open-loop sweep: every app at every scale on
// every backend, rate, and mechanism, expanded scale-major then app,
// backend, rate, mechanism.
type TrafficExperiment struct {
	// Procs lists the scales; each uses DefaultConfig.
	Procs []int
	// Apps lists the traffic workloads (nil selects TrafficApps).
	Apps []string
	// Mechs lists the mechanisms (nil selects TrafficMechs).
	Mechs []Mechanism
	// Backends lists the memory-system backends (nil selects all three).
	Backends []Backend
	// Rates lists the offered-rate ladder (nil selects TrafficRates).
	Rates []int
	// Options configures the driver; its Rate field is overridden by each
	// ladder step.
	Options workload.TrafficOptions
	// RunConfig selects the event kernel and fault injection for every
	// cell. Its Backend field is ignored — the Backends slice drives the
	// backend axis.
	RunConfig
}

// resolve returns the experiment's axes with defaults applied.
func (e TrafficExperiment) resolve() (apps []string, mechs []Mechanism, backends []Backend, rates []int) {
	apps, mechs, backends, rates = e.Apps, e.Mechs, e.Backends, e.Rates
	if apps == nil {
		apps = TrafficApps
	}
	if mechs == nil {
		mechs = TrafficMechs
	}
	if backends == nil {
		backends = Backends
	}
	if rates == nil {
		rates = TrafficRates
	}
	return apps, mechs, backends, rates
}

// Points implements SweepSpec. Unknown app names panic: the expansion is
// driven by package-internal tables, so a bad name is a programming error.
func (e TrafficExperiment) Points() []SweepPoint {
	apps, mechs, backends, rates := e.resolve()
	pts := make([]SweepPoint, 0, len(e.Procs)*len(apps)*len(backends)*len(rates)*len(mechs))
	for _, p := range e.Procs {
		for _, app := range apps {
			for _, b := range backends {
				rc := e.RunConfig
				rc.Backend = b
				cfg := rc.apply(DefaultConfig(p))
				for _, rate := range rates {
					o := e.Options.WithDefaults()
					o.Rate = rate
					s, ok := workload.TrafficSpec(app, o)
					if !ok {
						panic(fmt.Sprintf("amosim: unknown traffic workload %q (have %v)", app, TrafficApps))
					}
					for _, mech := range mechs {
						pts = append(pts, s.Point(cfg, mech, e.workloadRC()))
					}
				}
			}
		}
	}
	return pts
}

// TrafficWorkloadSpec returns the registered traffic spec for app with its
// driver options replaced, or false if app is not an open-loop workload.
func TrafficWorkloadSpec(app string, o TrafficOptions) (WorkloadSpec, bool) {
	return workload.TrafficSpec(app, o)
}

// TrafficCell is one cell of the traffic sweep, in expansion order.
type TrafficCell struct {
	Procs     int
	App       string
	Backend   Backend
	Rate      int
	Mechanism Mechanism
	Result    TrafficResult
}

// TrafficSweep runs the experiment and returns ordered cells (scale-major,
// then app, backend, rate, mechanism) — byte-identical at any sweep worker
// count and on either event kernel.
func TrafficSweep(e TrafficExperiment) ([]TrafficCell, error) {
	apps, mechs, backends, rates := e.resolve()
	vals, err := runSweep(e)
	if err != nil {
		return nil, err
	}
	results := sweepValues[TrafficResult](vals)
	cells := make([]TrafficCell, 0, len(results))
	i := 0
	for _, p := range e.Procs {
		for _, app := range apps {
			for _, b := range backends {
				for _, rate := range rates {
					for _, mech := range mechs {
						cells = append(cells, TrafficCell{
							Procs: p, App: app, Backend: b, Rate: rate,
							Mechanism: mech, Result: results[i],
						})
						i++
					}
				}
			}
		}
	}
	return cells, nil
}

// TrafficTable renders the open-loop sweep: one row per (CPUs, app,
// backend, rate) with sojourn percentiles per mechanism, closed by a
// saturation row per (CPUs, app, backend) naming the first offered rate
// each mechanism failed to absorb ("-" when it absorbed the whole ladder).
func TrafficTable(e TrafficExperiment) (*stats.Table, error) {
	_, mechs, _, rates := e.resolve()
	cells, err := TrafficSweep(e)
	if err != nil {
		return nil, err
	}
	header := []string{"CPUs", "app", "backend", "rate"}
	for _, mech := range mechs {
		header = append(header,
			mech.String()+" p50", mech.String()+" p99",
			mech.String()+" p999", mech.String()+" max")
	}
	t := &stats.Table{
		Title:  "Open-loop traffic: sojourn percentiles (cycles) by offered rate (req/kcycle)",
		Header: header,
	}
	perRow := len(mechs)
	perGroup := perRow * len(rates)
	for g := 0; g+perGroup <= len(cells); g += perGroup {
		for r := 0; r < len(rates); r++ {
			base := cells[g+r*perRow]
			row := []string{stats.I(base.Procs), base.App, base.Backend.String(), stats.I(base.Rate)}
			for m := 0; m < perRow; m++ {
				lat := cells[g+r*perRow+m].Result.Latency
				row = append(row, stats.U(lat.P50), stats.U(lat.P99), stats.U(lat.P999), stats.U(lat.Max))
			}
			t.AddRow(row...)
		}
		// Saturation summary: the first rate in ladder order each mechanism
		// saturated at (achieved < 95% of offered).
		head := cells[g]
		row := []string{stats.I(head.Procs), head.App, head.Backend.String(), "sat"}
		for m := 0; m < perRow; m++ {
			sat := "-"
			for r := 0; r < len(rates); r++ {
				c := cells[g+r*perRow+m]
				if c.Result.Saturated {
					sat = stats.I(c.Rate)
					break
				}
			}
			row = append(row, sat, "", "", "")
		}
		t.AddRow(row...)
	}
	return t, nil
}
