package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"

	"repro/internal/analysis"
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
)

// params is what the command line fixes for every workload. The seed
// reaches only the input generators below: the program under test
// receives graphs, messages and schedules, never a workload name.
type params struct {
	seed  uint64
	scale float64
	P     int // GOMAXPROCS = Workers = Shards
}

// Streams of rng.New(seed) the harness draws its own inputs from. They
// sit far above the streams load.Run derives (0-4 and 16+msg).
const (
	graphStream   = 1 << 40
	failureStream = 1<<40 + 1
	probeStream   = 1<<40 + 2
)

// newWorkloads returns the five workloads at p's seed and scale, in
// the order they run.
func newWorkloads(p params) []workload {
	// Sizes at scale 1 were chosen on a 2-core box so that one body
	// takes 0.5-1.5 s and ten seconds hold at least five repetitions.
	side := func(full int) int { return maxInt(12, int(math.Round(float64(full)*math.Sqrt(p.scale)))) }
	count := func(full, floor int) int { return maxInt(floor, int(math.Round(float64(full)*p.scale))) }

	fig6N := 1 << 11
	for fig6N > 64 && float64(fig6N) > 2048*p.scale {
		fig6N >>= 1
	}
	liveSide := side(128)
	liveNodes := liveSide * liveSide
	live := func(name string, shards int) *engineWL {
		plan := "live-sharded"
		if shards == 1 {
			plan = "live-sequential"
		}
		return &engineWL{
			name: name, p: p, side: liveSide, links: 14, msgs: liveNodes * 5 / 2, wantPlan: plan,
			gen:     load.Uniform,
			arrival: func() load.Arrival { return load.Periodic(float64(liveNodes) / 4) },
			cfg: load.Config{Capacity: 1, Workers: p.P, Shards: shards, BatchSize: 32, Live: true,
				Route: route.Options{DeadEnd: route.Backtrack}},
		}
	}
	seq, sharded := live("live_seq", 1), live("live_sharded", p.P)
	sharded.twin = seq

	churnSide := side(80)
	churnNodes := churnSide * churnSide
	churnMsgs := churnNodes * 6
	churnRate := float64(churnNodes) / 64
	horizon := float64(churnMsgs) / churnRate
	churn := &engineWL{
		name: "churn_pit", p: p, side: churnSide, links: 14, msgs: churnMsgs, wantPlan: sharded.wantPlan, mutates: true,
		// Zipf(1.0) keeps the three hottest owners busy every tick, held
		// stable only by suppression; one seed in thirty the kill tips a
		// queue past the interest lifetime, expiries re-forward unsuppressed
		// and the run never drains. At 0.6 the hottest owner is about 90 %
		// busy and 400 seeds drain within 1.07 x the last injection.
		gen:     func() load.Generator { return load.Zipf(0.6) },
		arrival: func() load.Arrival { return load.Poisson(churnRate) },
		cfg: load.Config{Capacity: 1, Workers: p.P, Shards: p.P, BatchSize: 32, Live: true,
			PIT: true, PITTimeout: 64, PITWaiters: 16,
			Route: route.Options{DeadEnd: route.Backtrack},
			Churn: failure.ChurnSpec{
				KillFrac: 0.15, KillAt: horizon / 4, FlashJoin: maxInt(1, churnNodes/64), FlashAt: horizon / 2,
				ProbeTimeout: 4, GossipInterval: 1, GossipFanout: 2, Repair: true}},
	}

	return []workload{
		&fig6WL{p: p, n: fig6N, trials: 2 * p.P, msgs: count(100, 10)},
		seq, sharded, churn,
		&kneeWL{p: p, side: side(64), links: 12, msgs: count(2048, 512), failFrac: 0.3, min: 0.5, max: 0.5 * 4096},
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// digest hashes the canonical text of v. %v prints a float64 with the
// fewest digits that round-trip, so equal digests mean equal bits.
func digest(v interface{}) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", v)
	return fmt.Sprintf("%016x", h.Sum64())
}

// runSummary is the virtual-time content of one engine run: what the
// digest covers and the ledgers are checked on. It is filled either
// from load.Run's result or, in the traced pass, from the outcome of a
// direct engine.Run, and the two must agree.
type runSummary struct {
	Injected, Delivered, Failed            int
	Search                                 sim.SearchStats
	Services                               int
	LoadsHash                              uint64
	MaxQueueDepth                          int
	LatencyMean, P50, P95, P99             float64
	Makespan, LastInject                   float64
	Suppressed, MulticastFanout, Expired   int
	Crashes, Joins                         int
	Stranded, StrandResumed, StrandDropped int
	Reattached, GossipSends, LinksRebuilt  int
	RumorsConverged, RumorsAbandoned       int
	MembershipLag                          float64
}

func hashLoads(loads []int) (sum int, hash uint64) {
	h := fnv.New64a()
	var buf [8]byte
	for _, l := range loads {
		sum += l
		for i := range buf {
			buf[i] = byte(l >> (8 * i))
		}
		h.Write(buf[:])
	}
	return sum, h.Sum64()
}

func summarizeLoad(r *load.Result) runSummary {
	services, hash := hashLoads(r.Loads)
	return runSummary{
		Injected: r.Injected, Delivered: r.Delivered, Failed: r.Failed, Search: r.Search,
		Services: services, LoadsHash: hash, MaxQueueDepth: r.MaxQueueDepth,
		LatencyMean: r.LatencyMean, P50: r.LatencyP50, P95: r.LatencyP95, P99: r.LatencyP99,
		Makespan: r.Makespan, LastInject: r.LastInject,
		Suppressed: r.Suppressed, MulticastFanout: r.MulticastFanout, Expired: r.PITExpired,
		Crashes: r.Crashes, Joins: r.Joins,
		Stranded: r.Stranded, StrandResumed: r.StrandResumed, StrandDropped: r.StrandDropped,
		Reattached: r.Reattached, GossipSends: r.GossipSends, LinksRebuilt: r.LinksRebuilt,
		RumorsConverged: r.RumorsConverged, RumorsAbandoned: r.RumorsAbandoned, MembershipLag: r.MembershipLag,
	}
}

func summarizeEngine(o *engine.Outcome, injected int) runSummary {
	services, hash := hashLoads(o.Loads)
	s := runSummary{
		Injected: injected, Services: services, LoadsHash: hash, MaxQueueDepth: o.MaxQueueDepth,
		Makespan: o.Makespan, LastInject: o.LastInject,
		Suppressed: o.Suppressed, MulticastFanout: o.MulticastFanout, Expired: o.PITExpired,
		Crashes: o.Crashes, Joins: o.Joins,
		Stranded: o.Stranded, StrandResumed: o.StrandResumed, StrandDropped: o.StrandDropped,
		Reattached: o.Reattached, GossipSends: o.GossipSends, LinksRebuilt: o.LinksRebuilt,
		RumorsConverged: o.RumorsConverged, RumorsAbandoned: o.RumorsAbandoned, MembershipLag: o.MembershipLag,
	}
	for _, res := range o.Results {
		s.Search.Record(res)
		if res.Delivered {
			s.Delivered++
		} else {
			s.Failed++
		}
	}
	if len(o.Latencies) > 0 {
		sorted := append([]float64(nil), o.Latencies...)
		sort.Float64s(sorted)
		var total float64
		for _, v := range sorted {
			total += v
		}
		s.LatencyMean = total / float64(len(sorted))
		s.P50, s.P95, s.P99 = mathx.NearestRank(sorted, 0.50), mathx.NearestRank(sorted, 0.95), mathx.NearestRank(sorted, 0.99)
	}
	return s
}

// ledgers are the conservation checks that need no reference run.
func (s runSummary) ledgers() []check {
	return []check{
		verdict("injected = delivered + failed", s.Injected == s.Delivered+s.Failed,
			"%d != %d + %d", s.Injected, s.Delivered, s.Failed),
		verdict("Suppressed = MulticastFanout + PITExpired", s.Suppressed == s.MulticastFanout+s.Expired,
			"%d != %d + %d", s.Suppressed, s.MulticastFanout, s.Expired),
		verdict("Stranded = StrandResumed + StrandDropped", s.Stranded == s.StrandResumed+s.StrandDropped,
			"%d != %d + %d", s.Stranded, s.StrandResumed, s.StrandDropped),
		verdict("rumours converged + abandoned = crashes + joins", s.RumorsConverged+s.RumorsAbandoned == s.Crashes+s.Joins,
			"%d + %d != %d + %d", s.RumorsConverged, s.RumorsAbandoned, s.Crashes, s.Joins),
	}
}

// churnNonVacuous fails a churn run in which the mechanisms the
// workload exists to exercise did nothing, or which did not drain.
func (s runSummary) churnNonVacuous() check {
	for _, c := range []struct {
		name string
		v    int
	}{
		{"crashes", s.Crashes}, {"joins", s.Joins}, {"gossip sends", s.GossipSends}, {"links rebuilt", s.LinksRebuilt},
		{"suppressions", s.Suppressed}, {"multicasts", s.MulticastFanout},
	} {
		if c.v <= 0 {
			return verdict("churn run is not vacuous", false, "no %s", c.name)
		}
	}
	return verdict("churn run is not vacuous", s.Makespan <= 1.25*s.LastInject,
		"did not drain: makespan %g > 1.25 x last injection %g", s.Makespan, s.LastInject)
}

func (s runSummary) outcome(plan string) *outcome {
	o := &outcome{
		Ops: s.Injected, Undelivered: s.Failed, Events: s.Services,
		MeanHops: s.Search.MeanHops(), P99Ticks: s.P99, Plan: plan, Digest: digest(s),
		checks: s.ledgers(),
	}
	if s.Makespan > 0 {
		o.Throughput = float64(s.Delivered) / s.Makespan
	}
	return o
}

// engineWL is a single live engine run through load.Run on an ideal
// 2-D torus: live_seq, live_sharded and churn_pit.
type engineWL struct {
	name              string
	p                 params
	side, links, msgs int
	gen               func() load.Generator
	arrival           func() load.Arrival
	cfg               load.Config // everything but Arrival and Telemetry
	wantPlan          string
	mutates           bool      // churn edits the graph
	twin              *engineWL // live_sharded: the Shards=1 run its digest must equal

	space *metric.Torus
	g     *graph.Graph
}

func (w *engineWL) Name() string  { return w.name }
func (w *engineWL) Mutates() bool { return w.mutates }

func (w *engineWL) Sizes() map[string]float64 {
	return map[string]float64{"side": float64(w.side), "nodes": float64(w.side * w.side), "links": float64(w.links),
		"msgs": float64(w.msgs), "shards": float64(w.cfg.Shards)}
}

// buildTorus builds the ideal side x side torus with links long links
// per node from the seed's graph stream, inside a graph-layer span.
func buildTorus(tr *tracer, parent, side, links int, seed uint64) (*metric.Torus, *graph.Graph, error) {
	space, err := metric.NewTorus(side, 2)
	if err != nil {
		return nil, nil, err
	}
	var g *graph.Graph
	_, err = tr.time(parent, "graph", "BuildIdeal", func() (map[string]float64, error) {
		g, err = graph.BuildIdeal(space, graph.PaperConfigFor(space, links), rng.New(seed).Derive(graphStream))
		return map[string]float64{"nodes": float64(space.Size()), "links": float64(space.Size() * links)}, err
	})
	return space, g, err
}

func (w *engineWL) Setup(tr *tracer, parent int) (err error) {
	if w.space, w.g, err = buildTorus(tr, parent, w.side, w.links, w.p.seed); err != nil {
		return err
	}
	if w.cfg.Churn.Enabled() {
		w.cfg.Churn.Protect, err = w.hotKeys(maxInt(1, w.side*w.side/protectedShare))
	}
	return err
}

// protectedShare: the churn schedule never crashes the most requested
// 1/protectedShare of churn_pit's keys. Every lookup for a dead key
// backtracks through the whole neighbourhood before it fails, so a
// regional kill that lands on a hot key would measure hot-key loss, not
// routing and membership repair (ext.churn.recovery protects its flood
// target for the same reason).
const protectedShare = 100

// drawPairs draws msgs from gen as load.Run does, from the pair stream.
func drawPairs(gen load.Generator, src *rng.Source, msgs []engine.Message) error {
	for i := range msgs {
		from, to, err := gen.Pair(src)
		if err != nil {
			return err
		}
		msgs[i] = engine.Message{From: from, Key: to}
	}
	return nil
}

// hotKeys returns the k keys the workload's own messages ask for most
// often (ties by point), drawn from the streams load.Run will use.
func (w *engineWL) hotKeys(k int) ([]metric.Point, error) {
	root, gen := rng.New(w.p.seed), w.gen()
	if err := gen.Bind(w.g, root.Derive(0)); err != nil {
		return nil, err
	}
	msgs := make([]engine.Message, w.msgs)
	if err := drawPairs(gen, root.Derive(1), msgs); err != nil {
		return nil, err
	}
	asked := map[metric.Point]int{}
	for _, m := range msgs {
		asked[m.Key]++
	}
	keys := make([]metric.Point, 0, len(asked))
	for p := range asked {
		keys = append(keys, p)
	}
	sort.Slice(keys, func(i, j int) bool {
		if asked[keys[i]] != asked[keys[j]] {
			return asked[keys[i]] > asked[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if len(keys) > k {
		keys = keys[:k]
	}
	return keys, nil
}

func (w *engineWL) loadConfig() load.Config {
	cfg := w.cfg
	cfg.Messages = w.msgs
	cfg.Arrival = w.arrival()
	return cfg
}

func (w *engineWL) Run() (*outcome, error) {
	res, err := load.Run(w.g, w.gen(), w.loadConfig(), w.p.seed)
	if err != nil {
		return nil, err
	}
	s := summarizeLoad(res)
	o := s.outcome(res.Plan)
	o.checks = append(o.checks, verdict("plan is "+w.wantPlan, res.Plan == w.wantPlan, "got %s: %s", res.Plan, res.PlanReason))
	if w.cfg.Churn.Enabled() {
		o.checks = append(o.checks, s.churnNonVacuous())
	}
	return o, nil
}

// Verify runs live_sharded's inputs once through the sequential plan:
// the two plans must produce the same virtual-time digest.
func (w *engineWL) Verify(ref *outcome) ([]check, error) {
	if w.twin == nil {
		return nil, nil
	}
	w.twin.space, w.twin.g = w.space, w.g
	seq, err := w.twin.Run()
	if err != nil {
		return nil, err
	}
	return append(seq.checks, verdict("live_sharded digest equals live_seq's", seq.Digest == ref.Digest,
		"sharded %s, sequential %s", ref.Digest, seq.Digest)), nil
}

// kneeWL is one saturation sweep: many short snapshot-mode engine runs
// on a torus with failed nodes, flooded key, replication with
// cache-on-path, and a congestion penalty.
type kneeWL struct {
	p                 params
	side, links, msgs int
	failFrac          float64
	min, max          float64 // sweep bracket; max is also the doubling cap

	space *metric.Torus
	g     *graph.Graph
}

func (w *kneeWL) Name() string  { return "knee_sweep" }
func (w *kneeWL) Mutates() bool { return false }

func (w *kneeWL) Sizes() map[string]float64 {
	return map[string]float64{"side": float64(w.side), "nodes": float64(w.side * w.side), "links": float64(w.links),
		"msgs": float64(w.msgs), "fail_frac": w.failFrac, "workers": float64(w.p.P)}
}

func (w *kneeWL) Setup(tr *tracer, parent int) (err error) {
	if w.space, w.g, err = buildTorus(tr, parent, w.side, w.links, w.p.seed); err != nil {
		return err
	}
	_, err = tr.time(parent, "failure", "FailNodesFraction", func() (map[string]float64, error) {
		n, err := failure.FailNodesFraction(w.g, w.failFrac, rng.New(w.p.seed).Derive(failureStream))
		return map[string]float64{"failed": float64(n)}, err
	})
	return err
}

func (w *kneeWL) sweepConfig() load.SweepConfig {
	return load.SweepConfig{Model: "poisson", Min: w.min, Max: w.max,
		Config: load.Config{Messages: w.msgs, Capacity: 1, Workers: w.p.P, Shards: 1, BatchSize: 32, Penalty: 4,
			Route:       route.Options{DeadEnd: route.Backtrack},
			Replication: &replica.Options{K: 4, CacheThreshold: 16, CacheCopies: 8}}}
}

func (w *kneeWL) Run() (*outcome, error) {
	res, err := load.Sweep(w.g, load.Flood(), w.sweepConfig(), w.p.seed)
	if err != nil {
		return nil, err
	}
	o, _ := w.outcome(res)
	return o, nil
}

// outcome reduces a sweep to the harness's terms: lookups are summed
// over every evaluated load, the virtual-time figures are those of the
// knee. Events are the lookups routed, not the FIFO services: a
// snapshot-mode sweep's time follows per-run set-up and whole-path
// routing, while its services swing by +-15 % with the flood target
// the seed elects, so services per second would measure the seed. The
// services are returned beside the outcome for the traced pass.
func (w *kneeWL) outcome(res *load.SweepResult) (o *outcome, services int) {
	type point struct {
		Load   float64
		Stable bool
		Run    runSummary
	}
	sum := struct {
		P99Bound, Knee, KneeThroughput, KneeP99 float64
		Saturated                               bool
		Points                                  []point
	}{P99Bound: res.P99Bound, Knee: res.Knee, KneeThroughput: res.KneeThroughput, KneeP99: res.KneeP99, Saturated: res.Saturated}
	o = &outcome{P99Ticks: res.KneeP99, Throughput: res.KneeThroughput, Plan: "snapshot"}
	ledgersOK := true
	for _, pt := range res.Points {
		s := summarizeLoad(pt.Result)
		sum.Points = append(sum.Points, point{pt.Load, pt.Stable, s})
		o.Ops += s.Injected
		o.Undelivered += s.Failed
		services += s.Services
		for _, c := range s.ledgers() {
			if !c.OK && ledgersOK {
				ledgersOK = false
				c.Name = fmt.Sprintf("load %g: %s", pt.Load, c.Name)
				o.checks = append(o.checks, c)
			}
		}
		if pt.Result.Plan != "snapshot" {
			o.Plan = pt.Result.Plan
		}
	}
	if k := res.KneePoint(); k != nil {
		o.MeanHops = k.Result.Search.MeanHops()
	}
	o.Events = o.Ops
	o.Digest = digest(sum)
	o.checks = append(o.checks,
		verdict("ledgers balance at every load", ledgersOK, "see the load's check"),
		verdict("plan is snapshot", o.Plan == "snapshot", "got %s", o.Plan),
		kneeIsReal(res, w.min, w.max))
	return o, services
}

// kneeIsReal fails a sweep whose knee says more about the search range
// than about the network: no unstable load seen, or a knee sitting on
// either end of the bracket.
func kneeIsReal(res *load.SweepResult, min, max float64) check {
	return verdict("knee is saturated and strictly inside the bracket",
		res.Saturated && res.Knee > min && res.Knee < max,
		"knee %g, saturated %v, bracket [%g, %g]", res.Knee, res.Saturated, min, max)
}

// fig6WL is the paper's Figure 6(a) sweep through the experiment
// registry: 9 failure levels x 3 dead-end strategies x trials networks
// on a ring with lg n long links, msgs searches each.
type fig6WL struct {
	p               params
	n, trials, msgs int

	ring       *metric.Ring
	oracleHops float64 // mean hops on the healthy reference ring
}

func (w *fig6WL) Name() string  { return "fig6_static" }
func (w *fig6WL) Mutates() bool { return false }

func (w *fig6WL) links() int { return mathx.ILog2(w.n) }

func (w *fig6WL) Sizes() map[string]float64 {
	return map[string]float64{"n": float64(w.n), "links": float64(w.links()), "trials": float64(w.trials),
		"msgs": float64(w.msgs), "workers": float64(w.p.P)}
}

// Setup builds the healthy reference ring and routes the workload's
// message count over it. The sweep itself builds its networks inside
// the body, so this is the only input there is to prepare; it feeds
// the paper oracle and gives graph-build changes a set-up time to move.
func (w *fig6WL) Setup(tr *tracer, parent int) error {
	ring, err := metric.NewRing(w.n)
	if err != nil {
		return err
	}
	w.ring = ring
	src := rng.New(w.p.seed).Derive(graphStream)
	var g *graph.Graph
	build := func() (map[string]float64, error) {
		g, err = graph.BuildIdeal(ring, graph.PaperConfigFor(ring, w.links()), src)
		return map[string]float64{"nodes": float64(w.n), "links": float64(w.n * w.links())}, err
	}
	search := func() (map[string]float64, error) {
		st, err := sim.MeasureSearches(g, route.New(g, route.Options{}), src, maxInt(w.msgs, 1000))
		w.oracleHops = st.MeanHops()
		return map[string]float64{"searches": float64(st.Searches), "hops": float64(st.HopsOK + st.HopsFail)}, err
	}
	if _, err = tr.time(parent, "graph", "BuildIdeal", build); err != nil {
		return err
	}
	_, err = tr.time(parent, "sim", "MeasureSearches", search)
	return err
}

func (w *fig6WL) experimentParams(workers int) experiments.Params {
	return experiments.Params{N: w.n, Trials: w.trials, Msgs: w.msgs, Seed: w.p.seed, Workers: workers}
}

func (w *fig6WL) Run() (*outcome, error) {
	tbl, err := experiments.Run("fig6a", w.experimentParams(w.p.P))
	if err != nil {
		return nil, err
	}
	return w.outcome(tbl)
}

// fig6Strategies and fig6Probs mirror the sweep experiments.Run makes.
var (
	fig6Strategies = []route.DeadEndPolicy{route.Terminate, route.RandomReroute, route.Backtrack}
	fig6Probs      = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
)

func (w *fig6WL) outcome(tbl *sim.Table) (*outcome, error) {
	perCell := w.trials * w.msgs
	o := &outcome{MeanHops: w.oracleHops, Digest: digest(tbl.String())}
	healthyOK, orderOK := true, true
	for ri, row := range tbl.Rows {
		if len(row) != 1+len(fig6Strategies) {
			return nil, fmt.Errorf("fig6a row has %d cells, want %d", len(row), 1+len(fig6Strategies))
		}
		var frac [3]float64
		for i := range frac {
			v, err := strconv.ParseFloat(row[i+1], 64)
			if err != nil {
				return nil, fmt.Errorf("fig6a cell %q: %w", row[i+1], err)
			}
			frac[i] = v
			o.Ops += perCell
			o.Undelivered += int(math.Round(v * float64(perCell)))
		}
		if fig6Probs[ri%len(fig6Probs)] == 0 && frac != [3]float64{} {
			healthyOK = false
		}
		if frac[2] > frac[0] {
			orderOK = false
		}
	}
	o.Events = o.Ops
	bound := analysis.MultiLinkUpperBound(w.n, w.links())
	o.checks = []check{
		verdict("fig6a has one row per failure level", len(tbl.Rows) == len(fig6Probs), "%d rows", len(tbl.Rows)),
		verdict("no search fails at p = 0", healthyOK, "see the table's first row"),
		verdict("backtracking fails no more than terminate in every row", orderOK, "see the table"),
		verdict("healthy-ring mean hops within the Theorem 13 bound", w.oracleHops > 0 && w.oracleHops <= bound,
			"%g hops, bound %g", w.oracleHops, bound),
	}
	return o, nil
}
