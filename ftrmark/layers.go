package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/construct"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/mathx"
	"repro/internal/metric"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// The traced pass measures layers from outside: the harness times the
// calls it makes into each layer's exported API, then replays the
// workload's own messages through each lower layer alone. Nothing in
// this file feeds an end-to-end metric.

// passes is how many times the traced pass repeats each engine run it
// compares (recorder on vs nil, one shard vs P).
const passes = 3

// probeCalls is the default call count of a micro-probe: enough that a
// nanosecond-scale call is timed over milliseconds.
const probeCalls = 1 << 20

var sink uint64 // keeps probe results alive

// perCall times n calls made by fn and returns nanoseconds per call.
func perCall(n int, fn func()) float64 {
	if n <= 0 {
		return 0
	}
	t0 := time.Now()
	fn()
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// mallocsDuring returns the heap objects fn allocated.
func mallocsDuring(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// speedupOmitted returns why a parallel speed-up must not be printed
// at P, or "" when it may be.
func speedupOmitted(P int) string {
	switch {
	case P <= 1:
		return "P = 1: no parallel run to compare against"
	case P > runtime.NumCPU():
		return "P > NumCPU: threads would be time-sliced, so a speed-up would measure the box"
	}
	return ""
}

// rngProbes times stream derivation and a single draw.
func rngProbes(m map[string]float64, seed uint64) {
	root := rng.New(seed)
	const derives = 1 << 16
	srcs := make([]*rng.Source, derives)
	m["rng.derive_ns"] = perCall(derives, func() {
		for i := range srcs {
			srcs[i] = root.Derive(uint64(16 + i))
		}
	})
	src := srcs[0]
	m["rng.uint64_ns"] = perCall(probeCalls, func() {
		var x uint64
		for i := 0; i < probeCalls; i++ {
			x ^= src.Uint64()
		}
		sink += x
	})
}

// samplerProbe times LinkSampler.Sample around random points of space
// and returns ns per draw and the share of draws with ok = false.
func samplerProbe(space metric.Space, calls int, seed uint64) (ns, rejectFrac float64, err error) {
	sampler, err := space.NewLinkSampler(float64(space.Dim()))
	if err != nil {
		return 0, 0, err
	}
	src := rng.New(seed).Derive(probeStream)
	size, rejected := space.Size(), 0
	ns = perCall(calls, func() {
		for i := 0; i < calls; i++ {
			q, ok := sampler.Sample(metric.Point(i%size), src)
			if !ok {
				rejected++
			}
			sink += uint64(q)
		}
	})
	return ns, float64(rejected) / float64(calls), nil
}

// buildProbe times one BuildIdeal of links long links per node over
// space and measures what the graph costs to build and to keep. It
// returns the graph for the mutation probes.
func buildProbe(m map[string]float64, space metric.Space, links int, seed uint64) (*graph.Graph, error) {
	var before, built, kept runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	g, err := graph.BuildIdeal(space, graph.PaperConfigFor(space, links), rng.New(seed).Derive(graphStream))
	secs := time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&built)
	runtime.GC()
	runtime.ReadMemStats(&kept)
	nodes := float64(space.Size())
	m["graph.build_s"] = secs
	m["graph.build_ns_per_link"] = secs * 1e9 / (nodes * float64(links))
	m["graph.build_allocs_per_node"] = float64(built.Mallocs-before.Mallocs) / nodes
	m["graph.bytes_per_node"] = (float64(kept.HeapAlloc) - float64(before.HeapAlloc)) / nodes
	return g, nil
}

// mutationProbes times the graph edits churn makes, on g (which it
// leaves edited).
func mutationProbes(m map[string]float64, g *graph.Graph, links int, seed uint64) error {
	space := g.Space()
	sampler, err := space.NewLinkSampler(float64(space.Dim()))
	if err != nil {
		return err
	}
	src := rng.New(seed).Derive(probeStream)
	const calls = 1 << 17
	size := space.Size()
	type edit struct {
		p, to metric.Point
		i     int
	}
	edits := make([]edit, 0, calls)
	for k := 0; len(edits) < calls; k++ {
		p := metric.Point(k % size)
		if to, ok := sampler.Sample(p, src); ok {
			edits = append(edits, edit{p, to, k % links})
		}
	}
	m["graph.replace_long_ns"] = perCall(calls, func() {
		for _, e := range edits {
			if err = g.ReplaceLong(e.p, e.i, e.to); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	m["graph.fail_revive_ns"] = perCall(2*calls, func() {
		for _, e := range edits {
			g.Fail(e.p)
			g.Revive(e.p)
		}
	})
	return nil
}

// routeReplay sends msgs through the routing layer alone on the static
// graph: once through Router.RouteAny, once through Walker and Step as
// the live engine drives them. targets returns a message's target set.
type routeReplay struct {
	routeSecs, newSecs, stepSecs, deriveSecs float64
	msgs, hops                               int
	allocs                                   float64
}

func (r *routeReplay) run(g *graph.Graph, opt route.Options, msgs []engine.Message, targets func(engine.Message) []metric.Point, seed uint64) error {
	opt.TracePath = true // the engine forces it on
	router := route.New(g, opt)
	root := rng.New(seed)
	srcs := make([]*rng.Source, len(msgs))
	derive := func() {
		for i := range srcs {
			srcs[i] = root.Derive(uint64(16 + i))
		}
	}
	var err error
	derive()
	t0 := time.Now()
	r.allocs += mallocsDuring(func() {
		for i, msg := range msgs {
			var res route.Result
			if res, err = router.RouteAny(srcs[i], msg.From, targets(msg)); err != nil {
				return
			}
			r.hops += res.Hops
		}
	})
	r.routeSecs += time.Since(t0).Seconds()
	if err != nil {
		return err
	}

	t0 = time.Now()
	derive()
	r.deriveSecs += time.Since(t0).Seconds()
	walkers := make([]*route.Walker, len(msgs))
	t0 = time.Now()
	for i, msg := range msgs {
		if walkers[i], err = router.Walker(srcs[i], msg.From, targets(msg)); err != nil {
			return err
		}
	}
	r.newSecs += time.Since(t0).Seconds()
	t0 = time.Now()
	for _, w := range walkers {
		for w.Step() {
		}
	}
	r.stepSecs += time.Since(t0).Seconds()
	r.msgs += len(msgs)
	return nil
}

func (r *routeReplay) report(m map[string]float64) {
	if r.hops == 0 || r.msgs == 0 {
		return
	}
	m["route.route_ns_per_hop"] = r.routeSecs * 1e9 / float64(r.hops)
	m["route.walker_new_ns"] = r.newSecs * 1e9 / float64(r.msgs)
	m["route.walker_step_ns"] = r.stepSecs * 1e9 / float64(r.hops)
	m["route.allocs_per_msg"] = r.allocs / float64(r.msgs)
}

// routeCounts reports the routing work a body did, from the search
// statistics taken at the layer boundary.
func routeCounts(m map[string]float64, st sim.SearchStats) {
	hops := st.HopsOK + st.HopsFail
	m["route.hops"] = float64(hops)
	m["route.backtracks"] = float64(st.Backtracks)
	m["route.reroutes"] = float64(st.Reroutes)
	if hops > 0 {
		m["route.wasted_hop_frac"] = float64(st.HopsFail) / float64(hops)
	}
}

// event is shaped like the engine's heap element: (time, msg, idx).
type event struct {
	time     float64
	msg, idx int
}

// heapProbe cycles a mathx.Heap holding occupancy engine-shaped
// events: each cycle pops the minimum and pushes its successor one
// service time later, as the live loop does.
func heapProbe(occupancy, cycles int) float64 {
	h := mathx.NewHeap(func(a, b event) bool {
		if a.time != b.time {
			return a.time < b.time
		}
		if a.msg != b.msg {
			return a.msg < b.msg
		}
		return a.idx < b.idx
	}, occupancy+1)
	for i := 0; i < occupancy; i++ {
		h.Push(event{time: float64(i%97) / 97, msg: i})
	}
	return perCall(cycles, func() {
		for i := 0; i < cycles; i++ {
			e := h.Pop()
			e.time++
			e.idx++
			h.Push(e)
		}
	})
}

// directRun is one engine.Run on inputs built through the public
// generator, arrival and churn APIs exactly as load.Run builds them,
// so that the load layer and the engine get separate spans.
type directRun struct {
	msgs                                         []engine.Message
	out                                          *engine.Outcome
	summary                                      runSummary
	bindS, pairsS, primeS, churnGenS, engineSecs float64
	churnEvents                                  int
	engineAllocs                                 float64
}

func (w *engineWL) direct(tr *tracer, parent, shards int, rec *telemetry.Recorder) (*directRun, error) {
	if w.mutates { // the previous run edited the graph: rebuild it, in its own span
		if err := w.Setup(tr, parent); err != nil {
			return nil, err
		}
	}
	d := &directRun{msgs: make([]engine.Message, w.msgs)}
	cfg := w.loadConfig()
	root := rng.New(w.p.seed)
	gen, arr := w.gen(), cfg.Arrival
	var err error
	if d.bindS, err = tr.time(parent, "load", "Generator.Bind", func() (map[string]float64, error) {
		return nil, gen.Bind(w.g, root.Derive(0))
	}); err != nil {
		return nil, err
	}
	if d.pairsS, err = tr.time(parent, "load", "Generator.Pair", func() (map[string]float64, error) {
		return map[string]float64{"msgs": float64(len(d.msgs))}, drawPairs(gen, root.Derive(1), d.msgs)
	}); err != nil {
		return nil, err
	}
	var primed []load.Injection
	if d.primeS, err = tr.time(parent, "load", "Arrival.Prime", func() (map[string]float64, error) {
		primed = arr.Prime(w.msgs, root.Derive(2))
		return map[string]float64{"injections": float64(len(primed))}, nil
	}); err != nil {
		return nil, err
	}
	var churn engine.ChurnConfig
	if spec := cfg.Churn; spec.Enabled() {
		if d.churnGenS, err = tr.time(parent, "failure", "ChurnSpec.Generate", func() (map[string]float64, error) {
			events, err := spec.Generate(w.g, root.Derive(4))
			churn = engine.ChurnConfig{Events: events, ProbeTimeout: spec.ProbeTimeout,
				GossipInterval: spec.GossipInterval, GossipFanout: spec.GossipFanout, Repair: spec.Repair}
			return map[string]float64{"events": float64(len(events))}, err
		}); err != nil {
			return nil, err
		}
		d.churnEvents = len(churn.Events)
	}
	mode := engine.ModeLive
	if cfg.PIT {
		mode = engine.ModeLivePIT
	}
	ecfg := engine.Config{Capacity: cfg.Capacity, Workers: cfg.Workers, Shards: shards, Route: cfg.Route,
		BatchSize: cfg.BatchSize, Mode: mode, PITTimeout: cfg.PITTimeout, PITWaiters: cfg.PITWaiters,
		Churn: churn, Telemetry: rec}
	d.engineSecs, err = tr.time(parent, "engine", "Run", func() (map[string]float64, error) {
		d.engineAllocs = mallocsDuring(func() {
			d.out, err = engine.Run(w.g, d.msgs, engine.Schedule{Initial: primed, Completed: arr.Completed}, ecfg, root)
		})
		if err != nil {
			return nil, err
		}
		d.summary = summarizeEngine(d.out, w.msgs)
		return map[string]float64{"events": float64(d.summary.Services), "msgs": float64(w.msgs),
			"hops": float64(d.summary.Search.HopsOK + d.summary.Search.HopsFail), "shards": float64(shards)}, nil
	})
	return d, err
}

func (w *engineWL) Trace(tr *tracer, ref *outcome) (map[string]float64, map[string]string, []check, error) {
	m, omitted := map[string]float64{}, map[string]string{}
	shards := w.cfg.Shards

	// The traced pass proper: one direct run with spans and no recorder.
	body := tr.begin(0, "ftrmark", w.name+" traced pass")
	d, err := w.direct(tr, body, shards, nil)
	tr.end(body, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	m["trace.coverage_frac"] = tr.coverage(body, 1)
	traced := d.summary.outcome(d.out.Plan.String())
	checks := []check{verdict("traced pass reproduces the untraced digest", traced.Digest == ref.Digest,
		"traced %s, untraced %s", traced.Digest, ref.Digest)}

	// Repeat passes, interleaved so drift hits every kind alike:
	// recorder nil (A), recorder attached (B), and one shard (S) when
	// the workload is sharded and a speed-up may be reported.
	why := speedupOmitted(w.p.P)
	nilS, recS, seqS := []float64{d.engineSecs}, []float64{}, []float64{}
	var rec *telemetry.Recorder
	for i := 0; i < passes; i++ {
		if i > 0 {
			a, err := w.direct(nil, 0, shards, nil)
			if err != nil {
				return nil, nil, nil, err
			}
			nilS = append(nilS, a.engineSecs)
		}
		rec = telemetry.New(telemetry.Options{})
		b, err := w.direct(nil, 0, shards, rec)
		if err != nil {
			return nil, nil, nil, err
		}
		recS = append(recS, b.engineSecs)
		if shards > 1 && why == "" {
			s, err := w.direct(nil, 0, 1, nil)
			if err != nil {
				return nil, nil, nil, err
			}
			seqS = append(seqS, s.engineSecs)
		}
	}
	engineS := median(nilS)

	sum := d.summary
	events, msgs := float64(sum.Services), float64(w.msgs)
	m["load.pairs_s"], m["load.prime_s"] = d.pairsS, d.primeS
	loadS := d.bindS + d.pairsS + d.primeS
	m["load.overhead_frac"] = loadS / (loadS + d.engineSecs)
	m["engine.run_s"] = engineS
	m["engine.events"] = events
	m["engine.ns_per_event"] = engineS * 1e9 / events
	m["engine.allocs_per_msg"] = d.engineAllocs / msgs
	m["engine.max_queue_depth"] = float64(sum.MaxQueueDepth)
	routeCounts(m, sum.Search)
	m["telemetry.overhead_frac"] = median(recS)/engineS - 1
	if runs := rec.Runs(); len(runs) > 0 {
		m["telemetry.windows"] = float64(len(runs[len(runs)-1].Windows()))
	}
	m["telemetry.flights"] = float64(len(rec.WorstFlights(math.MaxInt32)))

	speedup := "engine.shard_speedup"
	if w.cfg.Churn.Enabled() {
		speedup = "engine.churn.shard_speedup"
		m["failure.churn_generate_s"] = d.churnGenS
		m["failure.churn_events"] = float64(d.churnEvents)
		m["engine.churn.crashes"] = float64(sum.Crashes)
		m["engine.churn.joins"] = float64(sum.Joins)
		m["engine.churn.gossip_sends"] = float64(sum.GossipSends)
		m["engine.churn.links_rebuilt"] = float64(sum.LinksRebuilt)
		m["engine.churn.stranded"] = float64(sum.Stranded)
		m["engine.churn.gossip_frac"] = float64(sum.GossipSends) / events
	}
	if w.cfg.PIT {
		m["engine.pit.suppressed"] = float64(sum.Suppressed)
		m["engine.pit.multicast_fanout"] = float64(sum.MulticastFanout)
		m["engine.pit.expired"] = float64(sum.Expired)
		if sum.Suppressed > 0 {
			m["engine.pit.useful_frac"] = float64(sum.MulticastFanout) / float64(sum.Suppressed)
		}
	}
	switch {
	case shards == 1:
		omitted[speedup] = "sequential plan"
	case why != "":
		omitted[speedup] = why
	default:
		m[speedup] = median(seqS) / engineS
	}
	if s := rec.Scheduler(); s != nil && d.out.Plan == engine.PlanLiveSharded {
		schedMetrics(m, s)
	} else {
		omitted["engine.sched.*"] = "the run did not take the sharded plan"
	}

	// Replay the same messages through each lower layer alone, on the
	// static (pre-churn) graph with no queues.
	if w.mutates {
		if err := w.Setup(nil, 0); err != nil {
			return nil, nil, nil, err
		}
	}
	replay := tr.begin(0, "ftrmark", w.name+" lower-layer replay")
	defer tr.end(replay, nil)
	var rr routeReplay
	if _, err := tr.time(replay, "route", "RouteAny, Walker, Step", func() (map[string]float64, error) {
		err := rr.run(w.g, w.cfg.Route, d.msgs, func(msg engine.Message) []metric.Point { return []metric.Point{msg.Key} }, w.p.seed)
		return map[string]float64{"msgs": float64(rr.msgs), "hops": float64(rr.hops)}, err
	}); err != nil {
		return nil, nil, nil, err
	}
	rr.report(m)
	rngProbes(m, w.p.seed)
	m["rng.derive_ns"] = rr.deriveSecs * 1e9 / msgs // the run's own streams, not the probe's

	// Little's law gives the event heap's mean occupancy: one event per
	// message in flight.
	occupancy := 1
	if sum.Makespan > 0 {
		occupancy = maxInt(1, int(math.Round(sum.LatencyMean*float64(sum.Delivered)/sum.Makespan)))
	}
	m["mathx.heap_mean_occupancy"] = float64(occupancy)
	if _, err := tr.time(replay, "mathx", "Heap push+pop", func() (map[string]float64, error) {
		m["mathx.heap_pushpop_ns"] = heapProbe(occupancy, sum.Services)
		return map[string]float64{"cycles": events, "occupancy": float64(occupancy)}, nil
	}); err != nil {
		return nil, nil, nil, err
	}
	if shards == 1 {
		hops := float64(sum.Search.HopsOK + sum.Search.HopsFail)
		explained := m["route.walker_step_ns"]*hops + m["mathx.heap_pushpop_ns"]*events + m["rng.derive_ns"]*msgs
		m["engine.self_ns_per_event"] = m["engine.ns_per_event"] - explained/events
	} else {
		omitted["engine.self_ns_per_event"] = "sharded run: wall time per event is not comparable with single-threaded replay cost"
	}

	if _, err := tr.time(replay, "metric", "Distance, LinkSampler.Sample", func() (map[string]float64, error) {
		space := w.space
		m["metric.distance_ns.torus2d"] = perCall(probeCalls, func() {
			var x int
			for i := 0; i < probeCalls; i++ {
				msg := d.msgs[i%len(d.msgs)]
				x += space.Distance(msg.From, msg.Key)
			}
			sink += uint64(x)
		})
		// One draw per link the churn run rebuilt, at least enough to time.
		var err error
		m["metric.sample_ns.torus2d"], _, err = samplerProbe(space, maxInt(sum.LinksRebuilt, 1<<17), w.p.seed)
		return nil, err
	}); err != nil {
		return nil, nil, nil, err
	}
	if _, err := tr.time(replay, "graph", "BuildIdeal, ReplaceLong, Fail, Revive", func() (map[string]float64, error) {
		g, err := buildProbe(m, w.space, w.links, w.p.seed)
		if err != nil || !w.mutates {
			return nil, err
		}
		return nil, mutationProbes(m, g, w.links, w.p.seed)
	}); err != nil {
		return nil, nil, nil, err
	}
	return m, omitted, checks, nil
}

// schedMetrics derives the scheduler figures from the recorder's
// wall-clock profile of a sharded run.
func schedMetrics(m map[string]float64, s *telemetry.SchedStats) {
	events := float64(s.TotalEvents())
	m["engine.sched.windows"] = float64(s.Windows)
	if s.Windows > 0 {
		m["engine.sched.events_per_window"] = events / float64(s.Windows)
	}
	if h := s.Occupancy; h != nil && h.Total() > 0 {
		var small int64
		for i := 0; i < 6 && i < h.Buckets(); i++ { // log buckets below 2^6 = 64 events
			small += h.Count(i)
		}
		m["engine.sched.small_window_frac"] = float64(small) / float64(h.Total())
	}
	m["engine.sched.barrier_wait_frac"] = s.BarrierWaitFrac()
	var maxDrain, sumDrain float64
	for _, d := range s.Drain {
		sumDrain += d
		maxDrain = math.Max(maxDrain, d)
	}
	if sumDrain > 0 {
		m["engine.sched.drain_imbalance"] = maxDrain / (sumDrain / float64(len(s.Drain)))
	}
	var handoffs int
	for _, h := range s.Handoffs {
		handoffs += h
	}
	if events > 0 {
		m["engine.sched.handoff_frac"] = float64(handoffs) / events
	}
}

func (w *kneeWL) Trace(tr *tracer, ref *outcome) (map[string]float64, map[string]string, []check, error) {
	m := map[string]float64{}
	omitted := map[string]string{
		"engine.sched.*":            "snapshot mode has no live loop to shard",
		"engine.shard_speedup":      "snapshot mode has no live loop to shard",
		"telemetry.overhead_frac":   "measured on live_seq and live_sharded",
		"engine.self_ns_per_event":  "measured on live_seq",
		"engine.allocs_per_msg":     "engine runs are inside load.Sweep; see allocs_per_msg",
		"mathx.heap_pushpop_ns":     "measured on the live workloads",
		"mathx.heap_mean_occupancy": "measured on the live workloads",
	}

	// The traced pass: the sweep with a recorder attached, which is the
	// only way to see the engine runs inside it from outside.
	rec := telemetry.New(telemetry.Options{})
	cfg := w.sweepConfig()
	cfg.Telemetry = rec
	body := tr.begin(0, "ftrmark", "knee_sweep traced pass")
	sweep := tr.begin(body, "load", "Sweep")
	res, err := load.Sweep(w.g, load.Flood(), cfg, w.p.seed)
	if err != nil {
		return nil, nil, nil, err
	}
	sweepS := tr.end(sweep, map[string]float64{"runs": float64(len(res.Points))})
	tr.end(body, nil)
	traced, services := w.outcome(res)
	var runS []float64
	var engineS float64
	for _, run := range rec.Runs() {
		runS = append(runS, run.WallSecs)
		engineS += run.WallSecs
	}
	tr.aggregate(sweep, "engine", "Run", len(runS), engineS, map[string]float64{"events": float64(services)})
	m["trace.coverage_frac"] = tr.coverage(body, 1)
	checks := []check{
		verdict("traced pass reproduces the untraced digest", traced.Digest == ref.Digest, "traced %s, untraced %s", traced.Digest, ref.Digest),
		verdict("recorder saw every engine run of the sweep", len(runS) == len(res.Points) && rec.Skipped() == 0,
			"%d runs recorded, %d points", len(runS), len(res.Points)),
	}

	m["load.sweep.runs_per_knee"] = float64(len(res.Points))
	if len(runS) > 0 {
		m["load.sweep.run_s_median"] = median(runS)
	}
	m["load.sweep.events_total"] = float64(services)
	m["load.sweep.knee_rate"] = res.Knee
	if res.Saturated {
		m["load.sweep.saturated"] = 1
	}
	m["load.overhead_frac"] = 1 - engineS/sweepS
	m["engine.run_s"] = engineS
	m["engine.events"] = float64(services)
	m["engine.ns_per_event"] = engineS * 1e9 / float64(services)
	var kneeSearch sim.SearchStats
	for _, pt := range res.Points {
		m["engine.max_queue_depth"] = math.Max(m["engine.max_queue_depth"], float64(pt.Result.MaxQueueDepth))
	}
	if k := res.KneePoint(); k != nil {
		kneeSearch = k.Result.Search
		m["replica.cached_keys"] = float64(k.Result.CachedKeys)
		m["replica.cache_copies"] = float64(k.Result.CacheCopies)
	}
	routeCounts(m, kneeSearch)

	// What every one of the sweep's runs pays before its engine starts,
	// replayed once through the load layer's public API.
	replay := tr.begin(0, "ftrmark", "knee_sweep lower-layer replay")
	defer tr.end(replay, nil)
	root := rng.New(w.p.seed)
	gen := load.Flood()
	msgs := make([]engine.Message, w.msgs)
	if m["load.pairs_s"], err = tr.time(replay, "load", "Generator.Bind, Pair", func() (map[string]float64, error) {
		if err := gen.Bind(w.g, root.Derive(0)); err != nil {
			return nil, err
		}
		src := root.Derive(1)
		for i := range msgs {
			from, to, err := gen.Pair(src)
			if err != nil {
				return nil, err
			}
			msgs[i] = engine.Message{From: from, Key: to}
		}
		return map[string]float64{"msgs": float64(len(msgs))}, nil
	}); err != nil {
		return nil, nil, nil, err
	}
	rate := math.Max(res.Knee, w.min)
	if m["load.prime_s"], err = tr.time(replay, "load", "Arrival.Prime", func() (map[string]float64, error) {
		primed := load.Poisson(rate).Prime(w.msgs, root.Derive(2))
		return map[string]float64{"injections": float64(len(primed))}, nil
	}); err != nil {
		return nil, nil, nil, err
	}
	placement, err := replica.NewPlacement(w.space, *cfg.Replication, root.Derive(3).Uint64())
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err = tr.time(replay, "replica", "Placement.Targets", func() (map[string]float64, error) {
		m["replica.targets_ns"] = perCall(probeCalls, func() {
			for i := 0; i < probeCalls; i++ {
				sink += uint64(len(placement.Targets(msgs[i%len(msgs)].Key)))
			}
		})
		return nil, nil
	}); err != nil {
		return nil, nil, nil, err
	}
	var rr routeReplay
	if _, err = tr.time(replay, "route", "RouteAny, Walker, Step", func() (map[string]float64, error) {
		err := rr.run(w.g, cfg.Route, msgs, func(msg engine.Message) []metric.Point { return placement.Targets(msg.Key) }, w.p.seed)
		return map[string]float64{"msgs": float64(rr.msgs), "hops": float64(rr.hops)}, err
	}); err != nil {
		return nil, nil, nil, err
	}
	rr.report(m)
	rngProbes(m, w.p.seed)

	if _, err = tr.time(replay, "graph", "BuildIdeal", func() (map[string]float64, error) {
		g, err := buildProbe(m, w.space, w.links, w.p.seed)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		_, err = failure.FailNodesFraction(g, w.failFrac, rng.New(w.p.seed).Derive(failureStream))
		m["failure.fail_frac_s"] = time.Since(t0).Seconds()
		return nil, err
	}); err != nil {
		return nil, nil, nil, err
	}
	m["metric.sample_ns.torus2d"], _, err = samplerProbe(w.space, 1<<17, w.p.seed)
	return m, omitted, checks, err
}

func (w *fig6WL) Trace(tr *tracer, ref *outcome) (map[string]float64, map[string]string, []check, error) {
	m := map[string]float64{}
	omitted := map[string]string{"engine.*, load.*, telemetry.*, mathx.*, replica.*": "fig6_static never enters the engine"}
	links := w.links()

	// The traced pass: the sweep experiments.Run("fig6a") makes, rebuilt
	// call for call from the same exported functions so that each gets
	// its own span. Its failed fractions must print as the registry's do.
	body := tr.begin(0, "ftrmark", "fig6_static traced pass")
	var cells []string
	var total sim.SearchStats
	for _, prob := range fig6Probs {
		for _, strat := range fig6Strategies {
			prob, strat := prob, strat
			run := tr.begin(body, "sim", fmt.Sprintf("Run p=%g %s", prob, strat))
			stats, err := sim.Run(w.p.seed, w.trials, w.p.P, func(trial int, src *rng.Source) (sim.SearchStats, error) {
				var st sim.SearchStats
				var g *graph.Graph
				var router *route.Router
				id := tr.begin(run, "sim", "trial")
				defer func() { tr.end(id, map[string]float64{"trial": float64(trial)}) }()
				steps := []struct {
					layer, name string
					fn          func() error
				}{
					{"metric", "NewRing", func() (err error) { _, err = metric.NewRing(w.n); return }},
					{"graph", "BuildIdeal", func() (err error) {
						g, err = graph.BuildIdeal(w.ring, graph.PaperConfigFor(w.ring, links), src)
						return
					}},
					{"failure", "FailNodesFraction", func() (err error) { _, err = failure.FailNodesFraction(g, prob, src); return }},
					{"route", "New", func() error { router = route.New(g, route.Options{DeadEnd: strat}); return nil }},
					{"sim", "MeasureSearches", func() (err error) { st, err = sim.MeasureSearches(g, router, src, w.msgs); return }},
				}
				for _, s := range steps {
					if _, err := tr.time(id, s.layer, s.name, func() (map[string]float64, error) { return nil, s.fn() }); err != nil {
						return st, err
					}
				}
				return st, nil
			})
			tr.end(run, map[string]float64{"searches": float64(stats.Searches), "delivered": float64(stats.Delivered),
				"hops": float64(stats.HopsOK + stats.HopsFail)})
			if err != nil {
				tr.end(body, nil)
				return nil, nil, nil, err
			}
			total.Merge(stats)
			cells = append(cells, sim.F(stats.FailedFraction()))
		}
	}
	tr.end(body, nil)
	m["trace.coverage_frac"] = tr.coverage(body, w.p.P)
	routeCounts(m, total)

	// Untraced timings of the registry call, at P workers and at one.
	var tbl *sim.Table
	var parS []float64
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		var err error
		if tbl, err = experiments.Run("fig6a", w.experimentParams(w.p.P)); err != nil {
			return nil, nil, nil, err
		}
		parS = append(parS, time.Since(t0).Seconds())
	}
	var want []string
	for _, row := range tbl.Rows {
		want = append(want, row[1:]...)
	}
	checks := []check{verdict("traced pass reproduces the registry's table", fmt.Sprint(cells) == fmt.Sprint(want) && digest(tbl.String()) == ref.Digest,
		"traced %v, registry %v", cells, want)}
	m["sim.searches_per_s"] = float64(ref.Ops) / median(parS)
	if why := speedupOmitted(w.p.P); why != "" {
		omitted["sim.fanout_speedup"] = why
	} else {
		t0 := time.Now()
		if _, err := experiments.Run("fig6a", w.experimentParams(1)); err != nil {
			return nil, nil, nil, err
		}
		m["sim.fanout_speedup"] = time.Since(t0).Seconds() / median(parS)
	}

	// Replay: routing alone on one network per failure level, the ring
	// sampler alone, one build measured for footprint, and the §5
	// construction heuristic as a probe.
	replay := tr.begin(0, "ftrmark", "fig6_static lower-layer replay")
	defer tr.end(replay, nil)
	var rr routeReplay
	if _, err := tr.time(replay, "route", "RouteAny, Walker, Step", func() (map[string]float64, error) {
		for pi, prob := range fig6Probs {
			src := rng.New(w.p.seed).Derive(probeStream + uint64(pi))
			g, err := graph.BuildIdeal(w.ring, graph.PaperConfigFor(w.ring, links), src)
			if err != nil {
				return nil, err
			}
			if _, err := failure.FailNodesFraction(g, prob, src); err != nil {
				return nil, err
			}
			msgs := make([]engine.Message, 0, w.msgs)
			for len(msgs) < w.msgs {
				from, ok1 := g.RandomAlive(src)
				to, ok2 := g.RandomAlive(src)
				if !ok1 || !ok2 {
					return nil, fmt.Errorf("no live node at p = %g", prob)
				}
				if from != to {
					msgs = append(msgs, engine.Message{From: from, Key: to})
				}
			}
			for _, strat := range fig6Strategies {
				if err := rr.run(g, route.Options{DeadEnd: strat}, msgs, func(msg engine.Message) []metric.Point { return []metric.Point{msg.Key} }, w.p.seed); err != nil {
					return nil, err
				}
			}
		}
		return map[string]float64{"msgs": float64(rr.msgs), "hops": float64(rr.hops)}, nil
	}); err != nil {
		return nil, nil, nil, err
	}
	rr.report(m)
	rngProbes(m, w.p.seed)

	var err error
	if _, err = tr.time(replay, "metric", "LinkSampler.Sample", func() (map[string]float64, error) {
		var err error
		m["metric.sample_ns.ring"], m["metric.sample_reject_frac"], err = samplerProbe(w.ring, 1<<17, w.p.seed)
		return nil, err
	}); err != nil {
		return nil, nil, nil, err
	}
	if _, err = tr.time(replay, "graph", "BuildIdeal", func() (map[string]float64, error) {
		_, err := buildProbe(m, w.ring, links, w.p.seed)
		return nil, err
	}); err != nil {
		return nil, nil, nil, err
	}
	if _, err = tr.time(replay, "construct", "Builder.Add, Remove", func() (map[string]float64, error) {
		return nil, constructProbe(m, maxInt(64, int(4096*math.Min(1, w.p.scale))), w.p.seed)
	}); err != nil {
		return nil, nil, nil, err
	}

	// Figures read off the traced pass's spans.
	spans := tr.finish()
	var trialS []float64
	var buildS, failS, allTrials float64
	var fails int
	for _, s := range spans {
		d := s.End - s.Start
		switch {
		case s.Layer == "sim" && s.Name == "trial":
			trialS = append(trialS, d)
			allTrials += d
		case s.Layer == "graph" && s.Name == "BuildIdeal" && s.Parent > body:
			if spans[s.Parent-1].Name == "trial" {
				buildS += d
			}
		case s.Layer == "failure" && s.Name == "FailNodesFraction":
			failS += d
			fails++
		}
	}
	if len(trialS) > 0 {
		m["sim.trial_s_median"] = median(trialS)
		m["experiments.fig6.build_frac"] = buildS / allTrials
	}
	if fails > 0 {
		m["failure.fail_frac_s"] = failS / float64(fails)
	}
	return m, omitted, checks, nil
}

// constructProbe grows a ring of n points with the §5 heuristic, then
// removes a quarter of them, timing both protocols.
func constructProbe(m map[string]float64, n int, seed uint64) error {
	ring, err := metric.NewRing(n)
	if err != nil {
		return err
	}
	src := rng.New(seed).Derive(probeStream)
	b, err := construct.NewBuilder(ring, construct.Config{Links: mathx.ILog2(n)}, src)
	if err != nil {
		return err
	}
	order := src.Perm(n)
	m["construct.add_us"] = perCall(n, func() {
		for _, p := range order {
			if err = b.Add(metric.Point(p)); err != nil {
				return
			}
		}
	}) / 1e3
	if err != nil {
		return err
	}
	m["construct.remove_us"] = perCall(n/4, func() {
		for _, p := range order[:n/4] {
			if err = b.Remove(metric.Point(p)); err != nil {
				return
			}
		}
	}) / 1e3
	return err
}
