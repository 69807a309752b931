package load_test

// legacyRun is the pre-engine traffic pipeline — route every message
// against a frozen batch congestion snapshot, then replay all hops
// through per-node FIFO queues, probing instantaneous depth by
// re-replaying traffic prefixes — preserved verbatim as an executable
// oracle. The equivalence property (prop_test.go) drives it and the
// engine-backed load.Run over the same generated universes and
// requires byte-identical results: the refactor's core
// behaviour-preservation claim, checked continuously rather than
// trusted once.

import (
	"container/heap"
	"runtime"
	"sort"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/metric"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/route"
)

type legacyQueuedMessage struct {
	inject    float64
	path      []metric.Point
	delivered bool
}

type legacyArrival struct {
	time float64
	msg  int
	idx  int
}

type legacyArrivalHeap []legacyArrival

func (h legacyArrivalHeap) Len() int { return len(h) }
func (h legacyArrivalHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	if h[i].msg != h[j].msg {
		return h[i].msg < h[j].msg
	}
	return h[i].idx < h[j].idx
}
func (h legacyArrivalHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *legacyArrivalHeap) Push(x interface{}) { *h = append(*h, x.(legacyArrival)) }
func (h *legacyArrivalHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

type legacyNodeQueue struct {
	busyUntil float64
	finish    []float64
	head      int
}

func (q *legacyNodeQueue) depthAt(t float64) int {
	for q.head < len(q.finish) && q.finish[q.head] <= t {
		q.head++
	}
	if q.head == len(q.finish) {
		q.finish = q.finish[:0]
		q.head = 0
	}
	return len(q.finish) - q.head
}

type legacyQueueOutcome struct {
	loads         []int
	maxQueueDepth int
	latencies     []float64
	lastInject    float64
	makespan      float64
	probeDepths   []int
}

func legacySimulateQueues(size int, msgs []legacyQueuedMessage, serviceTime float64,
	initial []load.Injection, completed func(msg int, at float64) (load.Injection, bool),
	probe float64) legacyQueueOutcome {
	out := legacyQueueOutcome{loads: make([]int, size)}
	if probe >= 0 {
		out.probeDepths = make([]int, size)
	}
	queues := make([]legacyNodeQueue, size)
	h := make(legacyArrivalHeap, 0, len(initial))
	enqueue := func(inj load.Injection) {
		for {
			msgs[inj.Msg].inject = inj.Time
			if inj.Time > out.lastInject {
				out.lastInject = inj.Time
			}
			if len(msgs[inj.Msg].path) > 0 {
				heap.Push(&h, legacyArrival{time: inj.Time, msg: inj.Msg, idx: 0})
				return
			}
			if completed == nil {
				return
			}
			next, ok := completed(inj.Msg, inj.Time)
			if !ok {
				return
			}
			inj = next
		}
	}
	for _, inj := range initial {
		enqueue(inj)
	}
	for h.Len() > 0 {
		a := heap.Pop(&h).(legacyArrival)
		msg := &msgs[a.msg]
		node := msg.path[a.idx]
		q := &queues[node]
		if depth := q.depthAt(a.time) + 1; depth > out.maxQueueDepth {
			out.maxQueueDepth = depth
		}
		start := a.time
		if q.busyUntil > start {
			start = q.busyUntil
		}
		finish := start + serviceTime
		q.busyUntil = finish
		q.finish = append(q.finish, finish)
		out.loads[node]++
		if finish > out.makespan {
			out.makespan = finish
		}
		if out.probeDepths != nil && a.time <= probe && probe < finish {
			out.probeDepths[node]++
		}
		if a.idx+1 < len(msg.path) {
			heap.Push(&h, legacyArrival{time: finish, msg: a.msg, idx: a.idx + 1})
			continue
		}
		if msg.delivered {
			out.latencies = append(out.latencies, finish-msg.inject)
		}
		if completed != nil {
			if next, ok := completed(a.msg, finish); ok {
				enqueue(next)
			}
		}
	}
	return out
}

// legacyDepthSnapshot is the quadratic prefix-replay probe the engine
// replaced: replay messages [0, start) from scratch and read queue
// depths at the batch's injection time.
func legacyDepthSnapshot(size int, msgs []legacyQueuedMessage, primed []load.Injection,
	arr load.Arrival, serviceTime float64, start int) []int {
	initial := make([]load.Injection, 0, start)
	for _, inj := range primed {
		if inj.Msg < start {
			initial = append(initial, inj)
		}
	}
	completed := func(m int, at float64) (load.Injection, bool) {
		next, ok := arr.Completed(m, at)
		if !ok || next.Msg >= start {
			return load.Injection{}, false
		}
		return next, true
	}
	var probe float64
	if len(primed) == len(msgs) && start < len(primed) {
		probe = primed[start].Time
	} else {
		probe = legacySimulateQueues(size, msgs, serviceTime, initial, completed, -1).lastInject
	}
	return legacySimulateQueues(size, msgs, serviceTime, initial, completed, probe).probeDepths
}

type legacyLookup struct{ from, to metric.Point }

func legacyForwarders(res route.Result) []metric.Point {
	if res.Delivered && len(res.Path) > 0 {
		return res.Path[:len(res.Path)-1]
	}
	return res.Path
}

func legacyLatencySummary(latencies []float64) (mean, p50, p95, p99 float64) {
	if len(latencies) == 0 {
		return 0, 0, 0, 0
	}
	sorted := append([]float64(nil), latencies...)
	sort.Float64s(sorted)
	var total float64
	for _, v := range sorted {
		total += v
	}
	q := func(q float64) float64 {
		rank := int(q*float64(len(sorted))+0.5) - 1
		if rank < 0 {
			rank = 0
		}
		if rank >= len(sorted) {
			rank = len(sorted) - 1
		}
		return sorted[rank]
	}
	return total / float64(len(sorted)), q(0.50), q(0.95), q(0.99)
}

// legacyRun reproduces the pre-engine load.Run: sequential pair and
// schedule draws, batch-snapshot routing with per-message rng streams,
// prefix-replay depth probes, batch-boundary cache observation, and a
// single whole-schedule queue replay at the end.
func legacyRun(g *graph.Graph, gen load.Generator, cfg load.Config, seed uint64) (*load.Result, error) {
	if cfg.Messages == 0 {
		cfg.Messages = 256
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = 1
	}
	if cfg.Rate == 0 {
		cfg.Rate = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 32
	}
	root := rng.New(seed)
	if err := gen.Bind(g, root.Derive(0)); err != nil {
		return nil, err
	}
	pairSrc := root.Derive(1)
	pairs := make([]legacyLookup, cfg.Messages)
	for i := range pairs {
		from, to, err := gen.Pair(pairSrc)
		if err != nil {
			return nil, err
		}
		pairs[i] = legacyLookup{from, to}
	}
	arr := cfg.Arrival
	if arr == nil {
		arr = load.Periodic(cfg.Rate)
	}
	primed := arr.Prime(cfg.Messages, root.Derive(2))
	serviceTime := 1 / cfg.Capacity

	var placement *replica.Placement
	if cfg.Replication != nil && cfg.Replication.Enabled() {
		rseed := cfg.ReplicaSeed
		if rseed == 0 {
			rseed = root.Derive(3).Uint64()
		}
		var err error
		placement, err = replica.NewPlacement(g.Space(), *cfg.Replication, rseed)
		if err != nil {
			return nil, err
		}
	}

	aware := cfg.Penalty > 0 || cfg.DepthPenalty > 0
	caching := placement != nil && cfg.Replication.CacheThreshold > 0
	ropt := cfg.Route
	ropt.TracePath = true
	if aware {
		ropt.Congestion = nil
	}
	results := make([]route.Result, cfg.Messages)
	msgs := make([]legacyQueuedMessage, cfg.Messages)
	charged := make([]int, g.Size())
	batch := cfg.Messages
	if aware || caching {
		batch = cfg.BatchSize
	}
	for start := 0; start < cfg.Messages; start += batch {
		end := start + batch
		if end > cfg.Messages {
			end = cfg.Messages
		}
		opt := ropt
		if aware && start > 0 {
			snapshot := append([]int(nil), charged...)
			var loadScale float64
			if cfg.Penalty > 0 {
				var total int
				for i, c := range snapshot {
					if g.Alive(metric.Point(i)) {
						total += c
					}
				}
				if total > 0 {
					loadScale = cfg.Penalty * float64(g.AliveCount()) / float64(total)
				}
			}
			var depth []int
			if cfg.DepthPenalty > 0 {
				depth = legacyDepthSnapshot(g.Size(), msgs, primed, arr, serviceTime, start)
			}
			if loadScale > 0 || depth != nil {
				depthPenalty := cfg.DepthPenalty
				opt.Congestion = func(q metric.Point) float64 {
					s := float64(snapshot[q]) * loadScale
					if depth != nil {
						s += depthPenalty * float64(depth[q])
					}
					return s
				}
			}
		}
		router := route.New(g, opt)
		for i := start; i < end; i++ {
			src := root.Derive(16 + uint64(i))
			var res route.Result
			var err error
			if placement != nil {
				res, err = router.RouteAny(src, pairs[i].from, placement.Targets(pairs[i].to))
			} else {
				res, err = router.Route(src, pairs[i].from, pairs[i].to)
			}
			if err != nil {
				return nil, err
			}
			results[i] = res
		}
		for i := start; i < end; i++ {
			msgs[i] = legacyQueuedMessage{path: legacyForwarders(results[i]), delivered: results[i].Delivered}
			for _, p := range msgs[i].path {
				charged[p]++
			}
			if caching && results[i].Delivered {
				placement.Observe(pairs[i].to, results[i].Path)
			}
		}
	}

	out := legacySimulateQueues(g.Size(), msgs, serviceTime, primed, arr.Completed, -1)

	r := &load.Result{
		Workload:      gen.Name(),
		Arrival:       arr.Name(),
		Mode:          "snapshot",
		Plan:          "snapshot",
		PlanReason:    engine.PlanReasonSnapshot,
		Injected:      cfg.Messages,
		Loads:         out.loads,
		ServedBy:      make([]int, g.Size()),
		MaxQueueDepth: out.maxQueueDepth,
		Makespan:      out.makespan,
		LastInject:    out.lastInject,
	}
	if placement != nil {
		r.Replication = placement.Name()
		r.CachedKeys = placement.CachedKeys()
		r.CacheCopies = placement.CachedCopies()
	}
	for _, res := range results {
		r.Search.Record(res)
		if res.Delivered {
			r.Delivered++
			r.ServedBy[res.Target]++
		} else {
			r.Failed++
		}
	}
	alive := g.AliveCount()
	var total int
	for _, l := range out.loads {
		if l > r.MaxLoad {
			r.MaxLoad = l
		}
		total += l
	}
	if alive > 0 {
		r.MeanLoad = float64(total) / float64(alive)
	}
	r.LatencyMean, r.LatencyP50, r.LatencyP95, r.LatencyP99 = legacyLatencySummary(out.latencies)
	if out.makespan > 0 {
		r.Throughput = float64(r.Delivered) / out.makespan
	}
	return r, nil
}
