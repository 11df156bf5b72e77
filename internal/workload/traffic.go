package workload

import (
	"fmt"

	"amosim/internal/chaos"
	"amosim/internal/config"
	"amosim/internal/machine"
	"amosim/internal/memsys"
	"amosim/internal/metrics"
	"amosim/internal/proc"
	"amosim/internal/stats"
	"amosim/internal/sweep"
	"amosim/internal/syncprim"
	"amosim/internal/traffic"
)

// The open-loop traffic harness: a deterministic arrival process injects
// requests into an irregular shared structure — a partitioned graph, a
// producer-consumer queue, a fetch-add MPMC ring — at an offered rate that
// does not depend on how fast the machine serves them. Each request
// carries its scheduled injection cycle; its sojourn time (completion
// minus injection) is folded into a latency histogram, and quantiles are
// reported for the measured window only, mirroring the Snapshot/Diff
// methodology of the closed-loop runners.
//
// Mechanics: every arrival cycle is realized host-side up front
// (traffic.Schedule, SplitMix64-seeded), workers claim request tickets
// with the mechanism's fetch-add, and a claimant whose request has not
// arrived yet sleeps to the scheduled cycle via an ordinary sim event —
// so the same schedule replays byte-identically on the sequential and
// parallel event kernels, at any sweep worker count, on every backend.
// Sojourns are recorded into a host slice indexed by request (each element
// written by exactly one CPU) and folded after the machine quiesces.

// TrafficApps lists the open-loop traffic workloads in presentation order.
var TrafficApps = []string{"bfs", "pagerank", "triangles", "workqueue", "mpmc"}

// TrafficOptions configure the open-loop driver.
type TrafficOptions struct {
	// Process is the arrival process: "poisson" (default) or "fixed".
	Process string
	// Rate is the offered arrival rate in requests per 1000 simulated
	// cycles across the whole machine (default 8).
	Rate int
	// Requests is the measured request count (default 2000).
	Requests int
	// Warmup requests precede the measured window (default 64), warming
	// caches, the AMU cache and the directory.
	Warmup int
	// Seed derives the arrival schedule and request payloads via the chaos
	// SplitMix64 discipline (default 1).
	Seed uint64
}

// WithDefaults resolves zero-valued fields to the documented defaults
// (the sweep.DefaultInt convention: points digest the defaulted form).
func (o TrafficOptions) WithDefaults() TrafficOptions {
	if o.Process == "" {
		o.Process = "poisson"
	}
	o.Rate = sweep.DefaultInt(o.Rate, 8)
	o.Requests = sweep.DefaultInt(o.Requests, 2000)
	o.Warmup = sweep.DefaultInt(o.Warmup, 64)
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// TrafficResult reports one verified open-loop traffic run.
type TrafficResult struct {
	Name      string
	Mechanism string
	Procs     int
	Process   string
	// Rate is the offered arrival rate (requests per kilocycle); Requests
	// the measured request count.
	Rate     int
	Requests int
	// Injected and Completed count measured-window requests; the driver
	// verifies every injected request completes and the workload's host
	// oracle holds, so they are equal on success.
	Injected  uint64
	Completed uint64
	// Cycles is the measured window length.
	Cycles uint64
	// Offered and Achieved are the offered and realized throughput in
	// requests per kilocycle; Saturated reports Achieved < 95% of Offered
	// (the open-loop saturation criterion).
	Offered   float64
	Achieved  float64
	Saturated bool
	// Latency is the sojourn-time window: p50/p99/p999 and max cycles from
	// scheduled injection to completion.
	Latency stats.LatencyWindow
	// Metrics is the measured-window snapshot diff; its cycle attribution
	// conserves exactly.
	Metrics metrics.Snapshot
}

// trafficApp is one irregular request workload: build allocates and
// initializes the shared structure (pre-run memory writes plus host
// oracle state for total requests), returning the per-request work body
// and the post-run verifier.
type trafficApp struct {
	name  string
	build func(m *machine.Machine, mech syncprim.Mechanism, total int, r *chaos.RNG) (work func(c *proc.CPU, req int), verify func() error, err error)
}

// runTraffic drives one open-loop run: warm-up injection phase, quiesce,
// snapshot, measured injection phase, quiesce, verify, report.
func runTraffic(cfg config.Config, mech syncprim.Mechanism, rc RunConfig, app trafficApp, o TrafficOptions) (TrafficResult, error) {
	o = o.WithDefaults()
	process, err := traffic.ParseProcess(o.Process)
	if err != nil {
		return TrafficResult{}, fmt.Errorf("workload: %s: %w", app.name, err)
	}
	if o.Requests < 1 || o.Warmup < 0 {
		return TrafficResult{}, fmt.Errorf("workload: %s needs requests >= 1, warmup >= 0 (got %d, %d)", app.name, o.Requests, o.Warmup)
	}
	fail := func(err error) (TrafficResult, error) {
		return TrafficResult{}, fmt.Errorf("workload: %s (%v, %d procs): %w", app.name, mech, cfg.Processors, err)
	}

	m, err := machine.New(cfg)
	if err != nil {
		return TrafficResult{}, err
	}
	defer m.Shutdown()
	orc := chaos.Arm(m, rc.plan())
	syncprim.RegisterHandlers(m)

	total := o.Warmup + o.Requests
	seeds := chaos.NewRNG(o.Seed)
	work, verify, err := app.build(m, mech, total, seeds.Split("payload/"+app.name))
	if err != nil {
		return fail(err)
	}

	procs := cfg.Processors
	warmTicket := m.AllocWord(0)
	measTicket := m.AllocWord(0)
	var bwait func(c *proc.CPU)
	if mech == syncprim.Combining {
		bwait = syncprim.NewCombiningBarrier(m, mech, procs, 0, 0).Wait
	} else {
		bwait = syncprim.NewBarrier(m, mech, procs, 0).Wait
	}

	// phase programs one injection phase: workers claim tickets with the
	// mechanism's fetch-add, sleep to the scheduled arrival cycle, serve
	// the request, and record its sojourn. The closing barrier keeps every
	// CPU alive (serving active messages) until the last request is done.
	phase := func(ticket uint64, sched *traffic.Schedule, base int, soj []uint64) {
		n := uint64(sched.Len())
		m.OnAllCPUs(func(c *proc.CPU) {
			for {
				i := syncprim.FetchAdd(c, mech, ticket, 1)
				if i >= n {
					break
				}
				at := sched.At(int(i))
				if now := uint64(c.Now()); now < at {
					c.Think(at - now)
				}
				work(c, base+int(i))
				soj[i] = uint64(c.Now()) - at
			}
			bwait(c)
		})
	}

	hist := stats.NewLatencyHist()
	fold := func(soj []uint64) {
		for _, s := range soj {
			hist.Add(s)
		}
	}

	warmSched, err := traffic.New(process, seeds.Split("arrivals/warmup").Uint64(), o.Rate, o.Warmup, 0)
	if err != nil {
		return fail(err)
	}
	warmSoj := make([]uint64, o.Warmup)
	phase(warmTicket, warmSched, 0, warmSoj)
	warmEnd, err := m.Run()
	if err != nil {
		return fail(fmt.Errorf("warmup phase: %w", err))
	}
	fold(warmSoj)
	histStart := hist.Clone()
	startSnap := m.Metrics()

	measSched, err := traffic.New(process, seeds.Split("arrivals/measured").Uint64(), o.Rate, o.Requests, uint64(warmEnd))
	if err != nil {
		return fail(err)
	}
	measSoj := make([]uint64, o.Requests)
	phase(measTicket, measSched, o.Warmup, measSoj)
	if _, err := m.Run(); err != nil {
		return fail(fmt.Errorf("measured phase: %w", err))
	}
	if err := orc(); err != nil {
		return fail(fmt.Errorf("chaos seed %d level %d: %w", rc.ChaosSeed, rc.ChaosLevel, err))
	}
	fold(measSoj)
	window := hist.Window(histStart)

	win := m.Metrics().Diff(startSnap)
	if err := win.CheckConservation(); err != nil {
		return fail(err)
	}
	if got := m.ReadWordCoherent(measTicket); got < uint64(o.Requests) {
		return fail(fmt.Errorf("only %d of %d measured requests claimed", got, o.Requests))
	}
	if err := verify(); err != nil {
		return fail(err)
	}

	offered := float64(o.Rate)
	achieved := float64(o.Requests) * 1000 / float64(win.Cycle)
	return TrafficResult{
		Name:      app.name,
		Mechanism: mech.String(),
		Procs:     procs,
		Process:   o.Process,
		Rate:      o.Rate,
		Requests:  o.Requests,
		Injected:  uint64(o.Requests),
		Completed: uint64(o.Requests),
		Cycles:    win.Cycle,
		Offered:   offered,
		Achieved:  achieved,
		Saturated: achieved < 0.95*offered,
		Latency:   window,
		Metrics:   win,
	}, nil
}

// simGraph is a deterministic sparse undirected graph partitioned across
// node memories: vertex u's sorted adjacency list lives on node u mod N.
type simGraph struct {
	v       int
	adj     [][]int
	adjAddr [][]uint64
}

// buildGraph realizes a connected graph (a ring plus extra random edges
// per vertex) and writes the adjacency lists into simulated memory.
func buildGraph(m *machine.Machine, v, extra int, r *chaos.RNG) (*simGraph, error) {
	if v < 4 {
		return nil, fmt.Errorf("graph needs >= 4 vertices (got %d)", v)
	}
	adjSet := make([]map[int]bool, v)
	for u := range adjSet {
		adjSet[u] = make(map[int]bool)
	}
	add := func(a, b int) {
		if a != b {
			adjSet[a][b] = true
			adjSet[b][a] = true
		}
	}
	for u := 0; u < v; u++ {
		add(u, (u+1)%v) // connectivity ring
	}
	for u := 0; u < v; u++ {
		for e := 0; e < extra; e++ {
			add(u, r.Intn(v))
		}
	}
	g := &simGraph{v: v, adj: make([][]int, v), adjAddr: make([][]uint64, v)}
	nodes := m.Cfg.Nodes()
	for u := 0; u < v; u++ {
		// Sorted insertion keeps the per-vertex list deterministic without
		// ranging over the map.
		list := make([]int, 0, len(adjSet[u]))
		for w := 0; w < v; w++ {
			if adjSet[u][w] {
				list = append(list, w)
			}
		}
		g.adj[u] = list
		base := m.Mem.Alloc(u%nodes, len(list)*memsys.WordBytes, m.Cfg.BlockBytes)
		addrs := make([]uint64, len(list))
		for k, w := range list {
			addrs[k] = base + uint64(k*memsys.WordBytes)
			m.Mem.WriteWord(addrs[k], uint64(w))
		}
		g.adjAddr[u] = addrs
	}
	return g, nil
}

// graph workload defaults.
const (
	trafficGraphVertices = 96
	trafficGraphExtra    = 2
	trafficLevelBins     = 16
)

// bfsApp is partitioned-graph BFS under traffic: each request chases the
// BFS parent chain from a pseudo-random start vertex to the root — an
// irregular cross-node pointer walk — then bins the discovered depth into
// a shared level histogram with the mechanism's fetch-add.
func bfsApp(vertices int) trafficApp {
	return trafficApp{name: "bfs", build: func(m *machine.Machine, mech syncprim.Mechanism, total int, r *chaos.RNG) (func(c *proc.CPU, req int), func() error, error) {
		g, err := buildGraph(m, vertices, trafficGraphExtra, r.Split("graph"))
		if err != nil {
			return nil, nil, err
		}
		// Host BFS from vertex 0: level and tree parent of every vertex
		// (the ring makes the graph connected).
		level := make([]int, g.v)
		parent := make([]int, g.v)
		for u := range level {
			level[u] = -1
		}
		level[0], parent[0] = 0, 0
		queue := []int{0}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range g.adj[u] {
				if level[w] < 0 {
					level[w] = level[u] + 1
					parent[w] = u
					queue = append(queue, w)
				}
			}
		}
		nodes := m.Cfg.Nodes()
		parentAddr := make([]uint64, g.v)
		for u := 0; u < g.v; u++ {
			parentAddr[u] = m.AllocWord(u % nodes)
			m.Mem.WriteWord(parentAddr[u], uint64(parent[u]))
		}
		binAddr := make([]uint64, trafficLevelBins)
		for b := range binAddr {
			binAddr[b] = m.AllocWord(b % nodes)
		}
		pr := r.Split("requests")
		reqVertex := make([]int, total)
		want := make([]uint64, trafficLevelBins)
		for i := range reqVertex {
			reqVertex[i] = pr.Intn(g.v)
			want[level[reqVertex[i]]%trafficLevelBins]++
		}
		work := func(c *proc.CPU, req int) {
			v := reqVertex[req]
			hops := 0
			for v != 0 {
				v = int(c.Load(parentAddr[v]))
				hops++
			}
			syncprim.FetchAdd(c, mech, binAddr[hops%trafficLevelBins], 1)
		}
		verify := func() error {
			for b := range binAddr {
				if got := m.ReadWordCoherent(binAddr[b]); got != want[b] {
					return fmt.Errorf("level bin %d = %d, want %d", b, got, want[b])
				}
			}
			return nil
		}
		return work, verify, nil
	}}
}

// pagerankApp is push-style PageRank under traffic: each request loads a
// vertex's integer contribution and scatters it to every neighbour's
// accumulator with the mechanism's fetch-add — fine-grained contended
// updates across node memories.
func pagerankApp(vertices int) trafficApp {
	return trafficApp{name: "pagerank", build: func(m *machine.Machine, mech syncprim.Mechanism, total int, r *chaos.RNG) (func(c *proc.CPU, req int), func() error, error) {
		g, err := buildGraph(m, vertices, trafficGraphExtra, r.Split("graph"))
		if err != nil {
			return nil, nil, err
		}
		nodes := m.Cfg.Nodes()
		contrib := make([]uint64, g.v)
		contribAddr := make([]uint64, g.v)
		accAddr := make([]uint64, g.v)
		cr := r.Split("contrib")
		for u := 0; u < g.v; u++ {
			contrib[u] = uint64(1 + cr.Intn(100))
			contribAddr[u] = m.AllocWord(u % nodes)
			m.Mem.WriteWord(contribAddr[u], contrib[u])
			accAddr[u] = m.AllocWord(u % nodes)
		}
		pr := r.Split("requests")
		reqVertex := make([]int, total)
		want := make([]uint64, g.v)
		for i := range reqVertex {
			u := pr.Intn(g.v)
			reqVertex[i] = u
			for _, w := range g.adj[u] {
				want[w] += contrib[u]
			}
		}
		work := func(c *proc.CPU, req int) {
			u := reqVertex[req]
			cv := c.Load(contribAddr[u])
			for _, na := range g.adjAddr[u] {
				w := c.Load(na)
				syncprim.FetchAdd(c, mech, accAddr[w], cv)
			}
		}
		verify := func() error {
			for u := 0; u < g.v; u++ {
				if got := m.ReadWordCoherent(accAddr[u]); got != want[u] {
					return fmt.Errorf("acc[%d] = %d, want %d", u, got, want[u])
				}
			}
			return nil
		}
		return work, verify, nil
	}}
}

// trianglesApp is triangle counting under traffic: each request intersects
// the sorted adjacency lists of a pseudo-random edge's endpoints (loading
// both lists from their home nodes) and adds the local triangle count to a
// shared total.
func trianglesApp(vertices int) trafficApp {
	return trafficApp{name: "triangles", build: func(m *machine.Machine, mech syncprim.Mechanism, total int, r *chaos.RNG) (func(c *proc.CPU, req int), func() error, error) {
		// Denser than the other graph apps so intersections are nonempty.
		g, err := buildGraph(m, vertices, trafficGraphExtra+2, r.Split("graph"))
		if err != nil {
			return nil, nil, err
		}
		totalAddr := m.AllocWord(0)
		pr := r.Split("requests")
		reqU := make([]int, total)
		reqV := make([]int, total)
		var want uint64
		common := func(u, v int) uint64 {
			var n uint64
			i, j := 0, 0
			for i < len(g.adj[u]) && j < len(g.adj[v]) {
				a, b := g.adj[u][i], g.adj[v][j]
				switch {
				case a == b:
					n++
					i++
					j++
				case a < b:
					i++
				default:
					j++
				}
			}
			return n
		}
		for i := range reqU {
			u := pr.Intn(g.v)
			v := g.adj[u][pr.Intn(len(g.adj[u]))]
			reqU[i], reqV[i] = u, v
			want += common(u, v)
		}
		work := func(c *proc.CPU, req int) {
			au, av := g.adjAddr[reqU[req]], g.adjAddr[reqV[req]]
			var n uint64
			i, j := 0, 0
			a, b := c.Load(au[i]), c.Load(av[j])
			for {
				switch {
				case a == b:
					n++
					i++
					j++
					if i >= len(au) || j >= len(av) {
						goto done
					}
					a, b = c.Load(au[i]), c.Load(av[j])
				case a < b:
					i++
					if i >= len(au) {
						goto done
					}
					a = c.Load(au[i])
				default:
					j++
					if j >= len(av) {
						goto done
					}
					b = c.Load(av[j])
				}
			}
		done:
			syncprim.FetchAdd(c, mech, totalAddr, n)
		}
		verify := func() error {
			if got := m.ReadWordCoherent(totalAddr); got != want {
				return fmt.Errorf("triangle total = %d, want %d", got, want)
			}
			return nil
		}
		return work, verify, nil
	}}
}

// workqueueApp is a producer-consumer work queue under traffic: even
// requests produce an item (publish value, then flag), odd requests
// consume the matching item (spin on the flag, load the value, fold it
// into a shared checksum with the mechanism's fetch-add). Ticket order
// guarantees the producer of item j is claimed before its consumer, and
// producers never block, so the queue is deadlock-free at any rate.
var workqueueApp = trafficApp{name: "workqueue", build: func(m *machine.Machine, mech syncprim.Mechanism, total int, r *chaos.RNG) (func(c *proc.CPU, req int), func() error, error) {
	items := (total + 1) / 2
	nodes := m.Cfg.Nodes()
	valAddr := make([]uint64, items)
	flagAddr := make([]uint64, items)
	for j := 0; j < items; j++ {
		valAddr[j] = m.AllocWord(j % nodes)
		flagAddr[j] = m.AllocWord(j % nodes)
	}
	sumAddr := m.AllocWord(0)
	pr := r.Split("payloads")
	payload := make([]uint64, items)
	var want uint64
	for j := range payload {
		payload[j] = uint64(1 + pr.Intn(1<<16))
		if 2*j+1 < total { // the item's consumer exists
			want += payload[j]
		}
	}
	work := func(c *proc.CPU, req int) {
		j := req / 2
		if req%2 == 0 {
			c.Store(valAddr[j], payload[j])
			c.Store(flagAddr[j], 1)
			return
		}
		c.SpinUntil(flagAddr[j], proc.NotEqual(0))
		v := c.Load(valAddr[j])
		syncprim.FetchAdd(c, mech, sumAddr, v)
	}
	verify := func() error {
		if got := m.ReadWordCoherent(sumAddr); got != want {
			return fmt.Errorf("consumed checksum = %d, want %d", got, want)
		}
		return nil
	}
	return work, verify, nil
}}

// mpmcApp is a fetch-add MPMC ring under traffic: each request pushes a
// payload (tail ticket, publish value then flag) and pops one (head
// ticket, spin for the publisher, load), folding the popped value and its
// square into shared checksums — the classic combining-friendly
// fetch-add queue. Every push precedes the pusher's own pop, so head
// never overtakes tail and the ring is deadlock-free.
var mpmcApp = trafficApp{name: "mpmc", build: func(m *machine.Machine, mech syncprim.Mechanism, total int, r *chaos.RNG) (func(c *proc.CPU, req int), func() error, error) {
	nodes := m.Cfg.Nodes()
	valAddr := make([]uint64, total)
	flagAddr := make([]uint64, total)
	for j := 0; j < total; j++ {
		valAddr[j] = m.AllocWord(j % nodes)
		flagAddr[j] = m.AllocWord(j % nodes)
	}
	tailAddr := m.AllocWord(0)
	headAddr := m.AllocWord(1 % nodes)
	sumAddr := m.AllocWord(2 % nodes)
	sqAddr := m.AllocWord(3 % nodes)
	pr := r.Split("payloads")
	payload := make([]uint64, total)
	var wantSum, wantSq uint64
	for i := range payload {
		payload[i] = uint64(1 + pr.Intn(1<<15))
		wantSum += payload[i]
		wantSq += payload[i] * payload[i]
	}
	work := func(c *proc.CPU, req int) {
		my := syncprim.FetchAdd(c, mech, tailAddr, 1)
		c.Store(valAddr[my], payload[req])
		c.Store(flagAddr[my], 1)
		h := syncprim.FetchAdd(c, mech, headAddr, 1)
		c.SpinUntil(flagAddr[h], proc.NotEqual(0))
		v := c.Load(valAddr[h])
		syncprim.FetchAdd(c, mech, sumAddr, v)
		syncprim.FetchAdd(c, mech, sqAddr, v*v)
	}
	verify := func() error {
		if got := m.ReadWordCoherent(tailAddr); got != uint64(total) {
			return fmt.Errorf("tail = %d, want %d", got, total)
		}
		if got := m.ReadWordCoherent(headAddr); got != uint64(total) {
			return fmt.Errorf("head = %d, want %d", got, total)
		}
		if got := m.ReadWordCoherent(sumAddr); got != wantSum {
			return fmt.Errorf("popped sum = %d, want %d", got, wantSum)
		}
		if got := m.ReadWordCoherent(sqAddr); got != wantSq {
			return fmt.Errorf("popped square sum = %d, want %d", got, wantSq)
		}
		return nil
	}
	return work, verify, nil
}}

// trafficParams renders the driver options for labels and cache keys.
func trafficParams(o TrafficOptions) []NamedParam {
	o = o.WithDefaults()
	return []NamedParam{
		ParamStr("proc", o.Process),
		ParamInt("rate", o.Rate),
		ParamInt("req", o.Requests),
		ParamInt("warm", o.Warmup),
		ParamUint("seed", o.Seed),
	}
}

// TrafficCapable marks the open-loop traffic specs: WithTraffic returns a
// copy of the spec at the given offered-load options, which is how table
// generators sweep one workload across a rate ladder.
type TrafficCapable interface {
	Spec
	WithTraffic(o TrafficOptions) Spec
}

// TrafficSpec returns the registered traffic spec for app with its driver
// options replaced, or false if app is not a traffic workload.
func TrafficSpec(app string, o TrafficOptions) (Spec, bool) {
	s, ok := ByName(app)
	if !ok {
		return nil, false
	}
	tc, ok := s.(TrafficCapable)
	if !ok {
		return nil, false
	}
	return tc.WithTraffic(o), true
}

// BFSSpec is the open-loop BFS parent-chase workload.
type BFSSpec struct {
	// Vertices sizes the partitioned graph (default 96).
	Vertices int
	// Traffic configures the open-loop driver.
	Traffic TrafficOptions
}

// WithDefaults resolves zero-valued fields to the documented defaults.
func (s BFSSpec) WithDefaults() BFSSpec {
	s.Vertices = sweep.DefaultInt(s.Vertices, trafficGraphVertices)
	s.Traffic = s.Traffic.WithDefaults()
	return s
}

// Name implements Spec.
func (s BFSSpec) Name() string { return "bfs" }

// Params implements Spec.
func (s BFSSpec) Params() []NamedParam {
	s = s.WithDefaults()
	return append([]NamedParam{ParamInt("v", s.Vertices)}, trafficParams(s.Traffic)...)
}

// WithTraffic implements TrafficCapable.
func (s BFSSpec) WithTraffic(o TrafficOptions) Spec { s.Traffic = o; return s }

// Point implements Spec.
func (s BFSSpec) Point(cfg config.Config, mech syncprim.Mechanism, rc RunConfig) sweep.Point {
	s = s.WithDefaults()
	return point(s, cfg, mech, rc, func() (TrafficResult, error) {
		return runTraffic(cfg, mech, rc, bfsApp(s.Vertices), s.Traffic)
	})
}

// PageRankSpec is the open-loop push-PageRank workload.
type PageRankSpec struct {
	// Vertices sizes the partitioned graph (default 96).
	Vertices int
	// Traffic configures the open-loop driver.
	Traffic TrafficOptions
}

// WithDefaults resolves zero-valued fields to the documented defaults.
func (s PageRankSpec) WithDefaults() PageRankSpec {
	s.Vertices = sweep.DefaultInt(s.Vertices, trafficGraphVertices)
	s.Traffic = s.Traffic.WithDefaults()
	return s
}

// Name implements Spec.
func (s PageRankSpec) Name() string { return "pagerank" }

// Params implements Spec.
func (s PageRankSpec) Params() []NamedParam {
	s = s.WithDefaults()
	return append([]NamedParam{ParamInt("v", s.Vertices)}, trafficParams(s.Traffic)...)
}

// WithTraffic implements TrafficCapable.
func (s PageRankSpec) WithTraffic(o TrafficOptions) Spec { s.Traffic = o; return s }

// Point implements Spec.
func (s PageRankSpec) Point(cfg config.Config, mech syncprim.Mechanism, rc RunConfig) sweep.Point {
	s = s.WithDefaults()
	return point(s, cfg, mech, rc, func() (TrafficResult, error) {
		return runTraffic(cfg, mech, rc, pagerankApp(s.Vertices), s.Traffic)
	})
}

// TrianglesSpec is the open-loop triangle-counting workload.
type TrianglesSpec struct {
	// Vertices sizes the partitioned graph (default 96).
	Vertices int
	// Traffic configures the open-loop driver.
	Traffic TrafficOptions
}

// WithDefaults resolves zero-valued fields to the documented defaults.
func (s TrianglesSpec) WithDefaults() TrianglesSpec {
	s.Vertices = sweep.DefaultInt(s.Vertices, trafficGraphVertices)
	s.Traffic = s.Traffic.WithDefaults()
	return s
}

// Name implements Spec.
func (s TrianglesSpec) Name() string { return "triangles" }

// Params implements Spec.
func (s TrianglesSpec) Params() []NamedParam {
	s = s.WithDefaults()
	return append([]NamedParam{ParamInt("v", s.Vertices)}, trafficParams(s.Traffic)...)
}

// WithTraffic implements TrafficCapable.
func (s TrianglesSpec) WithTraffic(o TrafficOptions) Spec { s.Traffic = o; return s }

// Point implements Spec.
func (s TrianglesSpec) Point(cfg config.Config, mech syncprim.Mechanism, rc RunConfig) sweep.Point {
	s = s.WithDefaults()
	return point(s, cfg, mech, rc, func() (TrafficResult, error) {
		return runTraffic(cfg, mech, rc, trianglesApp(s.Vertices), s.Traffic)
	})
}

// WorkQueueSpec is the open-loop producer-consumer work-queue workload.
type WorkQueueSpec struct {
	// Traffic configures the open-loop driver.
	Traffic TrafficOptions
}

// Name implements Spec.
func (s WorkQueueSpec) Name() string { return "workqueue" }

// Params implements Spec.
func (s WorkQueueSpec) Params() []NamedParam { return trafficParams(s.Traffic) }

// WithTraffic implements TrafficCapable.
func (s WorkQueueSpec) WithTraffic(o TrafficOptions) Spec { s.Traffic = o; return s }

// Point implements Spec.
func (s WorkQueueSpec) Point(cfg config.Config, mech syncprim.Mechanism, rc RunConfig) sweep.Point {
	return point(s, cfg, mech, rc, func() (TrafficResult, error) {
		return runTraffic(cfg, mech, rc, workqueueApp, s.Traffic)
	})
}

// MPMCSpec is the open-loop fetch-add MPMC ring workload.
type MPMCSpec struct {
	// Traffic configures the open-loop driver.
	Traffic TrafficOptions
}

// Name implements Spec.
func (s MPMCSpec) Name() string { return "mpmc" }

// Params implements Spec.
func (s MPMCSpec) Params() []NamedParam { return trafficParams(s.Traffic) }

// WithTraffic implements TrafficCapable.
func (s MPMCSpec) WithTraffic(o TrafficOptions) Spec { s.Traffic = o; return s }

// Point implements Spec.
func (s MPMCSpec) Point(cfg config.Config, mech syncprim.Mechanism, rc RunConfig) sweep.Point {
	return point(s, cfg, mech, rc, func() (TrafficResult, error) {
		return runTraffic(cfg, mech, rc, mpmcApp, s.Traffic)
	})
}
