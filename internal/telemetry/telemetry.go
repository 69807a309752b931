// Package telemetry is the engine's observability layer: a
// deterministic, virtual-time-keyed recorder the discrete-event core
// (internal/engine) feeds while it runs. Three instruments share one
// Recorder:
//
//   - A window timeseries: counters and gauges (injections,
//     completions, drops, services, queue depth max/mean, aggregation
//     merges, PIT suppressions/multicasts/expiries, cache
//     hits/promotions) bucketed by virtual-time window — the engine's
//     safe-horizon window of one service time — in a fixed-capacity
//     series that coalesces
//     adjacent buckets as the run outgrows it.
//   - A message flight recorder: per-hop traces (node, arrival and
//     service instants, queue depth seen, forwarding decision) for a
//     bounded reservoir sample of message IDs, exported for the k
//     worst-latency flights.
//   - Scheduler profiling: wall-clock per-shard drain time, barrier
//     wait time, outbox handoff volume, and a window occupancy
//     histogram from the sharded live loop.
//
// Everything keyed by virtual time is a pure function of the event
// multiset, so the recorded series are identical at every shard and
// worker count; only the scheduler profile (wall clock by nature) may
// vary between runs. A Recorder observes — it never feeds anything
// back into the simulation — so attaching one cannot move a golden.
//
// Concurrency contract: the engine's sequential call sites (injection,
// completion, merge settlement, cache polling, strand resumption) use
// the Recorder methods directly; its event handlers, which may run on
// parallel shard drains, go through their owner's View — one per
// shard, handed out before the run starts and folded back at EndRun.
// Flight hops may be appended from shard goroutines because a message
// is owned by exactly one shard at a time.
package telemetry

import (
	"sort"

	"repro/internal/mathx"
	"repro/internal/metric"
	"repro/internal/rng"
)

// Decision labels one forwarding decision for the flight recorder.
type Decision uint8

const (
	// DecisionSnapshot marks a hop along a snapshot-mode path,
	// precomputed per congestion batch rather than decided at service.
	DecisionSnapshot Decision = iota
	// DecisionGreedy is a live greedy forward move. Congestion-penalized
	// detours also report greedy: the scored move preserves strict
	// metric progress, so a detour is a longer greedy path, not a
	// distinct step kind.
	DecisionGreedy
	// DecisionBacktrack is a backward move of the §6 backtracking
	// policy.
	DecisionBacktrack
	// DecisionReroute is a random re-route jump out of a dead end.
	DecisionReroute
	// DecisionAnswer is a response-leg hop: the answer to a delivered
	// lookup retracing the reverse path (ModeLivePIT).
	DecisionAnswer
)

func (d Decision) String() string {
	switch d {
	case DecisionGreedy:
		return "greedy"
	case DecisionBacktrack:
		return "backtrack"
	case DecisionReroute:
		return "reroute"
	case DecisionAnswer:
		return "answer"
	default:
		return "snapshot"
	}
}

// Served labels how a completed lookup was answered.
type Served uint8

const (
	// ServedNone marks a failed search.
	ServedNone Served = iota
	// ServedPrimary: delivered at the key itself.
	ServedPrimary
	// ServedReplica: delivered at a static replica of the key.
	ServedReplica
	// ServedCache: delivered at a cache-on-path copy — a cache hit.
	ServedCache
	// ServedAggregated: answered by riding along with a same-key
	// carrier at an aggregation point.
	ServedAggregated
	// ServedPIT: answered by a pending-interest multicast — the lookup
	// was suppressed at a PIT entry and a returning answer released it
	// (ModeLivePIT).
	ServedPIT
)

func (s Served) String() string {
	switch s {
	case ServedPrimary:
		return "primary"
	case ServedReplica:
		return "replica"
	case ServedCache:
		return "cache"
	case ServedAggregated:
		return "aggregated"
	case ServedPIT:
		return "pit"
	default:
		return "none"
	}
}

// Counters is one window bucket of the timeseries. Every field is
// either additive or a max, so buckets merge exactly: the coalesced
// series is independent of the order increments arrived in.
type Counters struct {
	Injections   int
	Completions  int
	Drops        int // completions that failed (not delivered)
	Services     int
	Merges       int // aggregation ride-alongs
	Suppressions int // PIT suppressions: requests parked as waiters
	Multicasts   int // waiters released by PIT answer multicasts
	PITExpiries  int // waits ended by timeout instead of an answer
	CacheHits    int // deliveries served by a cache-on-path copy
	CachePromos  int // cached copies promoted
	DepthSum     int // sum of queue depths seen at arrival
	DepthCount   int
	DepthMax     int
	Crashes      int // churn crash events applied
	Joins        int // churn join events applied
	GossipSends  int // membership transmissions (gossip pushes + bootstraps)
	Strands      int // arrivals stranded at a dead node
}

func (c *Counters) add(o *Counters) {
	c.Injections += o.Injections
	c.Completions += o.Completions
	c.Drops += o.Drops
	c.Services += o.Services
	c.Merges += o.Merges
	c.Suppressions += o.Suppressions
	c.Multicasts += o.Multicasts
	c.PITExpiries += o.PITExpiries
	c.CacheHits += o.CacheHits
	c.CachePromos += o.CachePromos
	c.DepthSum += o.DepthSum
	c.DepthCount += o.DepthCount
	if o.DepthMax > c.DepthMax {
		c.DepthMax = o.DepthMax
	}
	c.Crashes += o.Crashes
	c.Joins += o.Joins
	c.GossipSends += o.GossipSends
	c.Strands += o.Strands
}

func (c *Counters) empty() bool {
	return c.Injections == 0 && c.Completions == 0 && c.Services == 0 &&
		c.Merges == 0 && c.Suppressions == 0 && c.Multicasts == 0 &&
		c.PITExpiries == 0 && c.CacheHits == 0 && c.CachePromos == 0 &&
		c.DepthCount == 0 && c.Crashes == 0 && c.Joins == 0 && c.GossipSends == 0 && c.Strands == 0
}

// series is a fixed-capacity window timeseries anchored at window 0.
// Bucket i covers windows [i·stride, (i+1)·stride); when the run
// outgrows the capacity, adjacent bucket pairs merge and the stride
// doubles. Because buckets only ever merge exactly (Counters.add), the
// final contents are a pure function of the multiset of
// (window, increment) pairs — no eviction order to leak
// nondeterminism.
type series struct {
	stride  int
	buckets []Counters
	used    int
}

func newSeries(capacity int) *series {
	return &series{stride: 1, buckets: make([]Counters, capacity)}
}

// at returns the bucket covering window win, coalescing as needed.
func (s *series) at(win int) *Counters {
	if win < 0 {
		win = 0
	}
	b := win / s.stride
	for b >= len(s.buckets) {
		s.coalesce()
		b = win / s.stride
	}
	if b >= s.used {
		s.used = b + 1
	}
	return &s.buckets[b]
}

// coalesce halves the resolution: bucket i absorbs buckets 2i and
// 2i+1.
func (s *series) coalesce() {
	n := len(s.buckets)
	for i := 0; i < n/2; i++ {
		merged := s.buckets[2*i]
		if 2*i+1 < n {
			merged.add(&s.buckets[2*i+1])
		}
		s.buckets[i] = merged
	}
	for i := n / 2; i < n; i++ {
		s.buckets[i] = Counters{}
	}
	s.stride *= 2
	s.used = (s.used + 1) / 2
}

// merge folds another series into this one, aligning strides first.
func (s *series) merge(o *series) {
	for o.stride < s.stride {
		o.coalesce()
	}
	for s.stride < o.stride {
		s.coalesce()
	}
	for i := 0; i < o.used; i++ {
		if o.buckets[i].empty() {
			continue
		}
		s.at(i * s.stride).add(&o.buckets[i])
	}
}

// Hop is one recorded service of a sampled message.
type Hop struct {
	Node     metric.Point `json:"node"`
	Arrival  float64      `json:"arrival"`
	Start    float64      `json:"start"`
	Finish   float64      `json:"finish"`
	Depth    int          `json:"depth"`
	Decision string       `json:"decision"`
}

// Flight is one sampled message's recorded trajectory.
type Flight struct {
	Run       int          `json:"run"`
	Msg       int          `json:"msg"`
	From      metric.Point `json:"from"`
	Key       metric.Point `json:"key"`
	Inject    float64      `json:"inject"`
	Complete  float64      `json:"complete"`
	Latency   float64      `json:"latency"`
	Delivered bool         `json:"delivered"`
	Merged    bool         `json:"merged"`
	Served    string       `json:"served"`
	Hops      []Hop        `json:"hops"`

	completed bool
}

// maxFlightHops bounds one flight's trace so a pathological walk
// cannot grow recorder memory without bound; hops beyond it are
// counted in the final trace length but not stored.
const maxFlightHops = 512

// SchedStats is the scheduler profile of one run: wall-clock shard
// timings from the partitioned live loop, or a single-"shard" summary
// of a sequential run. Unlike the window and flight instruments it is
// wall-clock data — never fold it into anything that must be
// deterministic.
type SchedStats struct {
	Shards    int
	Windows   int
	Drain     []float64 // per shard: seconds spent draining windows
	Wait      []float64 // per shard: seconds idle at the window barrier
	Events    []int     // per shard: events processed
	Handoffs  []int     // per shard: cross-shard events sent
	Occupancy *mathx.Histogram
}

// BarrierWaitFrac returns the fraction of shard wall-time spent
// waiting at window barriers: Σwait / (Σdrain + Σwait), in [0, 1].
func (s *SchedStats) BarrierWaitFrac() float64 {
	var drain, wait float64
	for _, d := range s.Drain {
		drain += d
	}
	for _, w := range s.Wait {
		wait += w
	}
	if drain+wait <= 0 {
		return 0
	}
	return wait / (drain + wait)
}

// TotalEvents returns the events processed across all shards.
func (s *SchedStats) TotalEvents() int {
	n := 0
	for _, e := range s.Events {
		n += e
	}
	return n
}

// Run is one engine run's recorded telemetry.
type Run struct {
	Label    string
	Capacity float64 // window length is 1/Capacity
	Messages int
	WallSecs float64

	win     *series
	views   []*View
	flights []Flight
	sampled map[int]int32 // message id -> flights index
	sched   SchedStats
}

// WindowLen returns the virtual-time length of one window.
func (r *Run) WindowLen() float64 { return 1 / r.Capacity }

// View is a shard-private window recorder: its methods may be called
// from the shard's drain goroutine without synchronization; the series
// folds into the run's at EndRun.
type View struct {
	s   *series
	run *Run
}

// Options configures a Recorder. It has no fields: the recorder's
// sizes are the constants below.
type Options struct{}

const (
	// windowCap is the bucket capacity of each run's window series.
	// The series covers the whole run regardless — buckets coalesce,
	// trading resolution for range.
	windowCap = 256
	// flightSample is the reservoir size of the flight recorder: how
	// many message IDs per run get full hop traces.
	flightSample = 64
	// flightSeed seeds the reservoir sampler's own rng stream,
	// independent of the simulation's.
	flightSeed = 0xf11e
	// worstK is how many worst-latency flights exports dump.
	worstK = 8
)

// maxRuns bounds how many runs one Recorder retains: a sweep calls the
// engine once per bracket point, so an experiment records tens of
// runs, not thousands. Beyond the bound new runs are counted but not
// recorded.
const maxRuns = 1024

// Recorder accumulates telemetry across one or more engine runs. It
// is not safe for concurrent use except through shard Views as
// documented above. A nil *Recorder is the disabled state: the engine
// guards every call site with a nil check, so disabled telemetry costs
// one predictable branch and zero allocations.
type Recorder struct {
	label   string // pending label for the next BeginRun
	runs    []*Run
	cur     *Run
	skipped int
	sampler *rng.Source
}

// New returns an enabled Recorder.
func New(Options) *Recorder {
	return &Recorder{sampler: rng.New(flightSeed)}
}

// Label sets the label attached to the next BeginRun — the caller that
// knows the scenario (package load) names the run; the engine that
// knows the clock starts it.
func (r *Recorder) Label(label string) { r.label = label }

// BeginRun starts recording a new engine run: capacity fixes the
// window length at 1/capacity, and the flight reservoir is drawn over
// message IDs [0, msgs).
func (r *Recorder) BeginRun(capacity float64, msgs int) {
	if len(r.runs) >= maxRuns {
		r.skipped++
		r.cur = nil
		r.label = ""
		return
	}
	run := &Run{
		Label:    r.label,
		Capacity: capacity,
		Messages: msgs,
		win:      newSeries(windowCap),
		sampled:  make(map[int]int32, flightSample),
	}
	r.label = ""
	// Classic reservoir sample of flightSample IDs from [0, msgs),
	// from the recorder's own rng stream: sampling consumes randomness,
	// and the simulation's streams must not notice telemetry exists.
	k := flightSample
	ids := make([]int, 0, k)
	for i := 0; i < msgs; i++ {
		if len(ids) < k {
			ids = append(ids, i)
		} else if j := r.sampler.Intn(i + 1); j < k {
			ids[j] = i
		}
	}
	run.flights = make([]Flight, len(ids))
	for slot, id := range ids {
		run.sampled[id] = int32(slot)
		run.flights[slot] = Flight{Run: len(r.runs), Msg: id}
	}
	r.cur = run
	r.runs = append(r.runs, run)
}

// EndRun finalizes the current run: shard views fold into the main
// series, and a run that never went through the sharded loop reports
// its scheduler profile as a single shard that drained for the whole
// wall time with no barrier.
func (r *Recorder) EndRun(wallSecs float64, events int) {
	run := r.cur
	if run == nil {
		return
	}
	run.WallSecs = wallSecs
	for _, v := range run.views {
		run.win.merge(v.s)
	}
	run.views = nil
	if run.sched.Shards == 0 {
		run.sched = SchedStats{
			Shards: 1,
			Drain:  []float64{wallSecs},
			Wait:   []float64{0},
			Events: []int{events},
		}
	}
	r.cur = nil
}

// Runs returns the recorded runs, in order.
func (r *Recorder) Runs() []*Run { return r.runs }

// Skipped returns how many runs arrived after the retention bound.
func (r *Recorder) Skipped() int { return r.skipped }

// window maps a virtual instant to its safe-horizon window index.
func (run *Run) window(t float64) int {
	return int(t * run.Capacity)
}

// ---------------------------------------------------------------------
// Sequential instrument hooks (see the engine call-site map in
// engine/doc.go).
// ---------------------------------------------------------------------

// Inject records one injection at virtual time t.
func (r *Recorder) Inject(msg int, t float64, from, key metric.Point) {
	run := r.cur
	if run == nil {
		return
	}
	run.win.at(run.window(t)).Injections++
	if slot, ok := run.sampled[msg]; ok {
		f := &run.flights[slot]
		f.From, f.Key, f.Inject = from, key, t
	}
}

// Complete records one completion at virtual time t.
func (r *Recorder) Complete(msg int, t float64, delivered bool, served Served) {
	run := r.cur
	if run == nil {
		return
	}
	c := run.win.at(run.window(t))
	c.Completions++
	if !delivered {
		c.Drops++
	}
	if served == ServedCache {
		c.CacheHits++
	}
	if slot, ok := run.sampled[msg]; ok {
		f := &run.flights[slot]
		f.Complete, f.Latency = t, t-f.Inject
		f.Delivered, f.Served, f.completed = delivered, served.String(), true
	}
}

// Merge records one aggregation ride-along at virtual time t.
func (r *Recorder) Merge(msg int, t float64) {
	run := r.cur
	if run == nil {
		return
	}
	run.win.at(run.window(t)).Merges++
	if slot, ok := run.sampled[msg]; ok {
		run.flights[slot].Merged = true
	}
}

// Churn records one applied churn event at virtual time t: a node
// crash or a join. Membership mutates only between windows, so this is
// always sequential code.
func (r *Recorder) Churn(t float64, crash bool) {
	if run := r.cur; run != nil {
		c := run.win.at(run.window(t))
		if crash {
			c.Crashes++
		} else {
			c.Joins++
		}
	}
}

// Gossip records membership transmissions at virtual time t — the
// membership-convergence traffic counter (each send was also charged
// as a FIFO service, so it appears in Services too).
func (r *Recorder) Gossip(t float64, sends int) {
	if run := r.cur; run != nil {
		run.win.at(run.window(t)).GossipSends += sends
	}
}

// Strand records one arrival stranded at a dead node at virtual
// time t.
func (r *Recorder) Strand(t float64) {
	if run := r.cur; run != nil {
		run.win.at(run.window(t)).Strands++
	}
}

// Cache records the cache-on-path promotions observed at virtual time
// t since the last call (the engine polls the placement's cumulative
// counter and reports deltas).
func (r *Recorder) Cache(t float64, promotions int) {
	run := r.cur
	if run == nil || promotions == 0 {
		return
	}
	run.win.at(run.window(t)).CachePromos += promotions
}

// Hop records one hop of a sampled message from sequential code.
func (r *Recorder) Hop(msg int, node metric.Point, arrival, start, finish float64, depth int, d Decision) {
	if r.cur == nil {
		return
	}
	r.view(0).Hop(msg, node, arrival, start, finish, depth, d)
}

// ---------------------------------------------------------------------
// Shard views — the parallel-safe surface.
// ---------------------------------------------------------------------

// View returns the shard's private recorder view, creating views up
// through the given shard id. Call only from sequential code (the
// engine takes views before starting a window drain); the returned
// View is then safe for its shard goroutine alone.
func (r *Recorder) view(shard int) *View {
	run := r.cur
	for len(run.views) <= shard {
		run.views = append(run.views, &View{s: newSeries(windowCap), run: run})
	}
	return run.views[shard]
}

// View is the exported form of view for the engine's shard setup; it
// returns nil when no run is active.
func (r *Recorder) View(shard int) *View {
	if r.cur == nil {
		return nil
	}
	return r.view(shard)
}

// Service records one queue service: the message arrived at t and saw
// the given queue depth (itself included).
func (v *View) Service(t float64, depth int) {
	c := v.s.at(v.run.window(t))
	c.Services++
	c.DepthSum += depth
	c.DepthCount++
	if depth > c.DepthMax {
		c.DepthMax = depth
	}
}

// Suppress records one PIT suppression at virtual time t: a request
// parked as a waiter on a pending same-key interest instead of
// forwarding. Like every View counter it lands in the owner's private
// series and folds at EndRun.
func (v *View) Suppress(t float64) {
	v.s.at(v.run.window(t)).Suppressions++
}

// Multicast records one PIT answer multicast at virtual time t
// releasing fanout waiters.
func (v *View) Multicast(t float64, fanout int) {
	v.s.at(v.run.window(t)).Multicasts += fanout
}

// PITExpire records one wait ending by timeout at virtual time t.
func (v *View) PITExpire(t float64) {
	v.s.at(v.run.window(t)).PITExpiries++
}

// Hop appends one hop to a sampled message's flight. Safe from the
// owning shard's goroutine: a message is processed by one shard at a
// time, and the sampled map is read-only after BeginRun.
func (v *View) Hop(msg int, node metric.Point, arrival, start, finish float64, depth int, d Decision) {
	slot, ok := v.run.sampled[msg]
	if !ok {
		return
	}
	f := &v.run.flights[slot]
	if len(f.Hops) >= maxFlightHops {
		return
	}
	f.Hops = append(f.Hops, Hop{
		Node: node, Arrival: arrival, Start: start, Finish: finish,
		Depth: depth, Decision: d.String(),
	})
}

// ---------------------------------------------------------------------
// Scheduler profiling hooks.
// ---------------------------------------------------------------------

// SchedInit sizes the scheduler profile for a sharded run.
func (r *Recorder) SchedInit(shards, maxOccupancy int) {
	run := r.cur
	if run == nil {
		return
	}
	run.sched = SchedStats{
		Shards:    shards,
		Drain:     make([]float64, shards),
		Wait:      make([]float64, shards),
		Events:    make([]int, shards),
		Handoffs:  make([]int, shards),
		Occupancy: mathx.NewLogHistogram(maxOccupancy),
	}
}

// SchedWindow records one shard's share of one window: its drain wall
// time, its wait for the window's slowest shard, and the events it
// processed.
func (r *Recorder) SchedWindow(shard int, drainSecs, waitSecs float64, events int) {
	run := r.cur
	if run == nil || run.sched.Shards == 0 {
		return
	}
	run.sched.Drain[shard] += drainSecs
	run.sched.Wait[shard] += waitSecs
	run.sched.Events[shard] += events
	if events > 0 {
		run.sched.Occupancy.Add(events)
	}
}

// SchedWindowDone counts one completed window.
func (r *Recorder) SchedWindowDone() {
	if run := r.cur; run != nil {
		run.sched.Windows++
	}
}

// SchedHandoffs counts cross-shard events a shard sent this window.
func (r *Recorder) SchedHandoffs(shard, n int) {
	run := r.cur
	if run == nil || run.sched.Shards == 0 || n == 0 {
		return
	}
	run.sched.Handoffs[shard] += n
}

// Scheduler returns the scheduler profile of the last finished run,
// or nil when nothing was recorded.
func (r *Recorder) Scheduler() *SchedStats {
	for i := len(r.runs) - 1; i >= 0; i-- {
		if r.runs[i].sched.Shards > 0 {
			return &r.runs[i].sched
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Read-side accessors.
// ---------------------------------------------------------------------

// Window is one exported bucket of a run's timeseries.
type Window struct {
	// Start and End are the covered window-index range [Start, End);
	// multiply by Run.WindowLen for virtual time.
	Start, End int
	Counters
	// InFlight is the in-flight gauge at the bucket's end: cumulative
	// injections minus completions.
	InFlight int
}

// Windows returns the run's timeseries, in window order.
func (run *Run) Windows() []Window {
	out := make([]Window, 0, run.win.used)
	inFlight := 0
	for i := 0; i < run.win.used; i++ {
		c := run.win.buckets[i]
		inFlight += c.Injections - c.Completions
		out = append(out, Window{
			Start:    i * run.win.stride,
			End:      (i + 1) * run.win.stride,
			Counters: c,
			InFlight: inFlight,
		})
	}
	return out
}

// Sched returns the run's scheduler profile (Shards == 0 when the run
// never finished).
func (run *Run) Sched() *SchedStats { return &run.sched }

// WorstFlights returns up to k completed sampled flights, worst
// latency first (ties break toward the lower message id), across all
// runs. A non-positive k selects the default of 8.
func (r *Recorder) WorstFlights(k int) []Flight {
	if k <= 0 {
		k = worstK
	}
	var out []Flight
	for _, run := range r.runs {
		for _, f := range run.flights {
			if f.completed {
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Latency != out[j].Latency {
			return out[i].Latency > out[j].Latency
		}
		if out[i].Run != out[j].Run {
			return out[i].Run < out[j].Run
		}
		return out[i].Msg < out[j].Msg
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// busiestRun returns the recorded run with the most services — the
// one worth rendering when a CLI can show only one panel.
func (r *Recorder) busiestRun() *Run {
	var best *Run
	bestServices := -1
	for _, run := range r.runs {
		n := 0
		for i := 0; i < run.win.used; i++ {
			n += run.win.buckets[i].Services
		}
		if n > bestServices {
			best, bestServices = run, n
		}
	}
	return best
}

// PanelSeries returns the busiest run's label and a set of named
// window series (in-flight, injections, completions, services, depth
// max, merges, cache hits) ready for viz.Timeline. Empty when nothing
// was recorded.
func (r *Recorder) PanelSeries() (label string, names []string, values [][]float64) {
	run := r.busiestRun()
	if run == nil {
		return "", nil, nil
	}
	ws := run.Windows()
	col := func(f func(Window) float64) []float64 {
		xs := make([]float64, len(ws))
		for i, w := range ws {
			xs[i] = f(w)
		}
		return xs
	}
	names = []string{"in-flight", "inject", "complete", "services", "depth max"}
	values = [][]float64{
		col(func(w Window) float64 { return float64(w.InFlight) }),
		col(func(w Window) float64 { return float64(w.Injections) }),
		col(func(w Window) float64 { return float64(w.Completions) }),
		col(func(w Window) float64 { return float64(w.Services) }),
		col(func(w Window) float64 { return float64(w.DepthMax) }),
	}
	var merges, suppressed, multicast, expired, hits, churn, gossip int
	for _, w := range ws {
		merges += w.Merges
		suppressed += w.Suppressions
		multicast += w.Multicasts
		expired += w.PITExpiries
		hits += w.CacheHits
		churn += w.Crashes + w.Joins
		gossip += w.GossipSends
	}
	if merges > 0 {
		names = append(names, "merges")
		values = append(values, col(func(w Window) float64 { return float64(w.Merges) }))
	}
	if suppressed > 0 {
		names = append(names, "suppressed")
		values = append(values, col(func(w Window) float64 { return float64(w.Suppressions) }))
	}
	if multicast > 0 {
		names = append(names, "multicast")
		values = append(values, col(func(w Window) float64 { return float64(w.Multicasts) }))
	}
	if expired > 0 {
		names = append(names, "pit expired")
		values = append(values, col(func(w Window) float64 { return float64(w.PITExpiries) }))
	}
	if hits > 0 {
		names = append(names, "cache hits")
		values = append(values, col(func(w Window) float64 { return float64(w.CacheHits) }))
	}
	if churn > 0 {
		names = append(names, "churn")
		values = append(values, col(func(w Window) float64 { return float64(w.Crashes + w.Joins) }))
	}
	if gossip > 0 {
		names = append(names, "gossip")
		values = append(values, col(func(w Window) float64 { return float64(w.GossipSends) }))
	}
	return run.Label, names, values
}
