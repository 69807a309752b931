package main

import "encoding/json"

// The benchmark's schema is data: every workload and metric ftrmark
// emits is named here once, and BENCHMARK.json, results.json, the
// comparison tool and the smoke test all read these tables.

// runSeconds is how long one contract run (--seconds) measures.
const runSeconds = 12

// workloadSpec names one workload and the reason it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{"fig6_static", "paper's Figure 6 sweep through experiments.Run: graph build, link sampler, failure injection, routing; no engine, so it bypasses every engine and scheduler change"},
	{"live_seq", "live event loop at Shards=1 on a 2-D torus: per-event and per-message cost with no scheduler; bypasses scheduler changes and is the digest reference for live_sharded"},
	{"live_sharded", "same graph, messages, schedule and seed at Shards=P: windows, barrier and hand-off; the target of scheduler changes"},
	{"churn_pit", "Zipf lookups with PIT answers under crash/join churn and gossip repair: graph mutation, link redraws and membership barriers beside forwarding"},
	{"knee_sweep", "load.Sweep on a 30%-failed torus with flood, replication and congestion penalty: many short snapshot-mode engine runs, per-run set-up and cache-on-path"},
}

// metricSpec describes one metric. The two bounds apply to end-to-end
// metrics only; each is the share of the old median by which the new
// one may worsen before it counts as a regression. SameSeed is ISSUE
// 12's bound and the one -compare applies: it refuses files whose seed,
// scale or P differ, so only the box's noise has to fit inside it.
// Bound is BENCHMARK.json's: the driver takes every run at another
// seed and requires the spread over ten seeds to stay inside it, so it
// also has to hold what the seed does to the inputs (the flood target
// the seed elects moves knee_sweep's allocs_per_msg by up to 7 % and
// its bytes_per_msg by up to 3 %, IQR over ten seeds). Moves and On state
// the prediction the layer metric carries: which end-to-end metric it
// should move, and on which workloads.
type metricSpec struct {
	Name     string  `json:"name"`
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	SameSeed float64 `json:"same_seed_bound,omitempty"`
	Bound    float64 `json:"bound,omitempty"`
	Clock    string  `json:"clock,omitempty"`
	Moves    string  `json:"moves,omitempty"`
	On       string  `json:"on,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndSpecs are the host-side metrics every workload reports from
// its untraced repetitions.
var endToEndSpecs = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: lower, SameSeed: 0.15, Bound: 0.25, Clock: "host"},
	{Name: "wall_s", Unit: "s", Better: lower, SameSeed: 0.10, Bound: 0.25, Clock: "host"},
	{Name: "events_per_s", Unit: "1/s", Better: higher, SameSeed: 0.10, Bound: 0.25, Clock: "host"},
	{Name: "allocs_per_msg", Unit: "count", Better: lower, SameSeed: 0.01, Bound: 0.25, Clock: "host"},
	{Name: "bytes_per_msg", Unit: "B", Better: lower, SameSeed: 0.02, Bound: 0.10, Clock: "host"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: lower, SameSeed: 0.10, Bound: 0.25, Clock: "host"},
}

// hostTimed are the end-to-end metrics a busy neighbour can move; a
// workload marked noisy (wall_s IQR/median above noisySpread) leaves
// them unresolved in -compare.
var hostTimed = map[string]bool{"setup_s": true, "wall_s": true, "events_per_s": true}

const noisySpread = 0.10

// virtualSpecs are the modelled network's own results. They repeat
// exactly for a fixed seed and scale, so -compare requires them to be
// identical; BENCHMARK.json lists them with the layer metrics because
// they vary with the seed by more than any bound the contract allows
// and have no value on fig6_static's engine-free sweep.
var virtualSpecs = []metricSpec{
	{Name: "mean_hops", Unit: "hops", Better: lower, Clock: "virtual"},
	{Name: "sim_p99_ticks", Unit: "ticks", Better: lower, Clock: "virtual"},
	{Name: "sim_throughput", Unit: "1/tick", Better: higher, Clock: "virtual"},
	{Name: "undelivered_frac", Unit: "ratio", Better: lower, Clock: "virtual"},
}

const (
	engineWLs = "live_seq, live_sharded, churn_pit, knee_sweep"
	liveWLs   = "live_seq, live_sharded"
)

// layerSpecs are the per-layer metrics of the traced pass. Layer names
// are package names; the layer of a metric is its name up to the first
// dot.
var layerSpecs = []metricSpec{
	{Name: "rng.derive_ns", Unit: "ns", Better: lower, Moves: "wall_s, allocs_per_msg", On: "live_seq, churn_pit"},
	{Name: "rng.uint64_ns", Unit: "ns", Better: lower, Moves: "wall_s", On: "live_seq, churn_pit"},
	{Name: "metric.sample_ns.ring", Unit: "ns", Better: lower, Moves: "wall_s, setup_s", On: "fig6_static"},
	{Name: "metric.sample_ns.torus2d", Unit: "ns", Better: lower, Moves: "setup_s", On: engineWLs},
	{Name: "metric.sample_reject_frac", Unit: "ratio", Better: lower, Moves: "wall_s, setup_s", On: "fig6_static"},
	{Name: "metric.distance_ns.torus2d", Unit: "ns", Better: lower, Moves: "wall_s", On: liveWLs},
	{Name: "graph.build_s", Unit: "s", Better: lower, Moves: "setup_s, peak_rss_mb; wall_s on fig6_static", On: "all"},
	{Name: "graph.build_ns_per_link", Unit: "ns", Better: lower, Moves: "setup_s; wall_s on fig6_static", On: "all"},
	{Name: "graph.build_allocs_per_node", Unit: "count", Better: lower, Moves: "allocs_per_msg", On: "fig6_static"},
	{Name: "graph.bytes_per_node", Unit: "B", Better: lower, Moves: "peak_rss_mb", On: "all"},
	{Name: "graph.replace_long_ns", Unit: "ns", Better: lower, Moves: "wall_s", On: "churn_pit"},
	{Name: "graph.fail_revive_ns", Unit: "ns", Better: lower, Moves: "wall_s", On: "churn_pit"},
	{Name: "failure.fail_frac_s", Unit: "s", Better: lower, Moves: "wall_s on fig6_static; setup_s on knee_sweep", On: "fig6_static, knee_sweep"},
	{Name: "failure.churn_generate_s", Unit: "s", Better: lower, Moves: "wall_s", On: "churn_pit"},
	{Name: "failure.churn_events", Unit: "count", Better: lower, Moves: "wall_s", On: "churn_pit"},
	{Name: "construct.add_us", Unit: "us", Better: lower, Moves: "none today", On: "fig6_static (probe)"},
	{Name: "construct.remove_us", Unit: "us", Better: lower, Moves: "none today", On: "fig6_static (probe)"},
	{Name: "route.route_ns_per_hop", Unit: "ns", Better: lower, Moves: "wall_s", On: "fig6_static, live_seq"},
	{Name: "route.walker_new_ns", Unit: "ns", Better: lower, Moves: "wall_s, allocs_per_msg", On: "live_seq, live_sharded, churn_pit"},
	{Name: "route.walker_step_ns", Unit: "ns", Better: lower, Moves: "wall_s", On: "live_seq, live_sharded, churn_pit"},
	{Name: "route.allocs_per_msg", Unit: "count", Better: lower, Moves: "allocs_per_msg", On: "fig6_static, live_seq"},
	{Name: "route.hops", Unit: "count", Better: lower, Moves: "mean_hops", On: "all"},
	{Name: "route.backtracks", Unit: "count", Better: lower, Moves: "mean_hops", On: "fig6_static, knee_sweep"},
	{Name: "route.reroutes", Unit: "count", Better: lower, Moves: "mean_hops", On: "fig6_static"},
	{Name: "route.wasted_hop_frac", Unit: "ratio", Better: lower, Moves: "undelivered_frac, mean_hops", On: "fig6_static, knee_sweep"},
	{Name: "mathx.heap_pushpop_ns", Unit: "ns", Better: lower, Moves: "wall_s", On: "live_seq, churn_pit"},
	{Name: "mathx.heap_mean_occupancy", Unit: "count", Better: lower, Moves: "wall_s", On: "live_seq, churn_pit"},
	{Name: "engine.run_s", Unit: "s", Better: lower, Moves: "wall_s", On: engineWLs},
	{Name: "engine.events", Unit: "count", Better: lower, Moves: "events_per_s", On: engineWLs},
	{Name: "engine.ns_per_event", Unit: "ns", Better: lower, Moves: "wall_s, events_per_s", On: engineWLs},
	{Name: "engine.allocs_per_msg", Unit: "count", Better: lower, Moves: "allocs_per_msg", On: "live_seq, live_sharded, churn_pit"},
	{Name: "engine.max_queue_depth", Unit: "count", Better: lower, Moves: "sim_p99_ticks", On: engineWLs},
	{Name: "engine.self_ns_per_event", Unit: "ns", Better: lower, Moves: "wall_s", On: "live_seq"},
	{Name: "engine.sched.windows", Unit: "count", Better: lower, Moves: "wall_s, events_per_s", On: "live_sharded, churn_pit"},
	{Name: "engine.sched.events_per_window", Unit: "count", Better: higher, Moves: "wall_s, events_per_s", On: "live_sharded, churn_pit"},
	{Name: "engine.sched.small_window_frac", Unit: "ratio", Better: lower, Moves: "wall_s, events_per_s", On: "live_sharded, churn_pit"},
	{Name: "engine.sched.barrier_wait_frac", Unit: "ratio", Better: lower, Moves: "wall_s, events_per_s", On: "live_sharded, churn_pit"},
	{Name: "engine.sched.drain_imbalance", Unit: "ratio", Better: lower, Moves: "wall_s, events_per_s", On: "live_sharded, churn_pit"},
	{Name: "engine.sched.handoff_frac", Unit: "ratio", Better: lower, Moves: "wall_s, events_per_s", On: "live_sharded, churn_pit"},
	{Name: "engine.shard_speedup", Unit: "ratio", Better: higher, Moves: "wall_s", On: "live_sharded"},
	{Name: "engine.churn.shard_speedup", Unit: "ratio", Better: higher, Moves: "wall_s", On: "churn_pit"},
	{Name: "engine.pit.suppressed", Unit: "count", Better: higher, Moves: "sim_p99_ticks, sim_throughput", On: "churn_pit"},
	{Name: "engine.pit.multicast_fanout", Unit: "count", Better: higher, Moves: "sim_p99_ticks, sim_throughput", On: "churn_pit"},
	{Name: "engine.pit.expired", Unit: "count", Better: lower, Moves: "sim_p99_ticks", On: "churn_pit"},
	{Name: "engine.pit.useful_frac", Unit: "ratio", Better: higher, Moves: "sim_p99_ticks, sim_throughput", On: "churn_pit"},
	{Name: "engine.churn.crashes", Unit: "count", Better: lower, Moves: "events_per_s", On: "churn_pit"},
	{Name: "engine.churn.joins", Unit: "count", Better: lower, Moves: "events_per_s", On: "churn_pit"},
	{Name: "engine.churn.gossip_sends", Unit: "count", Better: lower, Moves: "events_per_s, sim_p99_ticks", On: "churn_pit"},
	{Name: "engine.churn.links_rebuilt", Unit: "count", Better: lower, Moves: "wall_s", On: "churn_pit"},
	{Name: "engine.churn.stranded", Unit: "count", Better: lower, Moves: "sim_p99_ticks", On: "churn_pit"},
	{Name: "engine.churn.gossip_frac", Unit: "ratio", Better: lower, Moves: "events_per_s, sim_p99_ticks", On: "churn_pit"},
	{Name: "load.pairs_s", Unit: "s", Better: lower, Moves: "wall_s, allocs_per_msg", On: "knee_sweep, live_seq"},
	{Name: "load.prime_s", Unit: "s", Better: lower, Moves: "wall_s", On: "knee_sweep, live_seq"},
	{Name: "load.overhead_frac", Unit: "ratio", Better: lower, Moves: "wall_s, allocs_per_msg", On: "knee_sweep, live_seq"},
	{Name: "load.sweep.runs_per_knee", Unit: "count", Better: lower, Moves: "wall_s", On: "knee_sweep"},
	{Name: "load.sweep.run_s_median", Unit: "s", Better: lower, Moves: "wall_s", On: "knee_sweep"},
	{Name: "load.sweep.events_total", Unit: "count", Better: lower, Moves: "events_per_s", On: "knee_sweep"},
	{Name: "load.sweep.knee_rate", Unit: "1/tick", Better: higher, Moves: "sim_throughput", On: "knee_sweep"},
	{Name: "load.sweep.saturated", Unit: "count", Better: higher, Moves: "sim_throughput", On: "knee_sweep"},
	{Name: "replica.targets_ns", Unit: "ns", Better: lower, Moves: "wall_s", On: "knee_sweep"},
	{Name: "replica.cached_keys", Unit: "count", Better: higher, Moves: "sim_throughput", On: "knee_sweep"},
	{Name: "replica.cache_copies", Unit: "count", Better: higher, Moves: "sim_throughput", On: "knee_sweep"},
	{Name: "telemetry.overhead_frac", Unit: "ratio", Better: lower, Moves: "none (tracing overhead, must stay < 0.10)", On: liveWLs},
	{Name: "telemetry.windows", Unit: "count", Better: lower, Moves: "none", On: liveWLs},
	{Name: "telemetry.flights", Unit: "count", Better: lower, Moves: "none", On: liveWLs},
	{Name: "sim.trial_s_median", Unit: "s", Better: lower, Moves: "wall_s", On: "fig6_static"},
	{Name: "sim.fanout_speedup", Unit: "ratio", Better: higher, Moves: "wall_s", On: "fig6_static"},
	{Name: "sim.searches_per_s", Unit: "1/s", Better: higher, Moves: "wall_s", On: "fig6_static"},
	{Name: "experiments.fig6.build_frac", Unit: "ratio", Better: lower, Moves: "wall_s, allocs_per_msg", On: "fig6_static"},
	{Name: "trace.coverage_frac", Unit: "ratio", Better: higher, Moves: "none (share of the traced pass inside layer spans)", On: "all"},
}

// contractPerLayer is what --trace 1 prints: the modelled network's
// results followed by the layer metrics.
func contractPerLayer() []metricSpec {
	return append(append([]metricSpec(nil), virtualSpecs...), layerSpecs...)
}

// benchmarkJSON renders BENCHMARK.json from the tables above, in the
// driver's schema: exactly these keys, and per metric exactly
// name/unit/better (plus bound for end-to-end metrics).
func benchmarkJSON() ([]byte, error) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []e2e          `json:"end_to_end"`
		PerLayer   []layer        `json:"per_layer"`
	}{
		Command:    []string{"bash", "ftrmark/run.sh"},
		Paths:      []string{"ftrmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
	}
	for _, m := range endToEndSpecs {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range contractPerLayer() {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
