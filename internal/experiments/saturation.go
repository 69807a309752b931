package experiments

import (
	"fmt"

	"repro/internal/load"
	"repro/internal/route"
	"repro/internal/sim"
)

// The ext.saturation.* experiments answer the capacity question the
// fixed-rate ext.load.* runs leave open: at what offered load does the
// network stop keeping up, and do the congestion-aware routing policies
// move that point? Each experiment drives load.Sweep — open-loop Poisson
// arrivals by default, -arrival/-clients/-think select other models —
// over seeded networks and tabulates the latency-vs-throughput curve and
// the knee. Like every traffic experiment, results are independent of
// Params.Workers.

// saturationPolicy is one routing policy a sweep compares.
type saturationPolicy struct {
	name           string
	penalty, depth float64
}

// saturationPolicies resolves the greedy / load-aware / depth-aware
// ladder, honouring -penalty and -depth overrides.
func saturationPolicies(p Params) []saturationPolicy {
	penalty := p.Penalty
	if penalty == 0 {
		penalty = 1
	}
	depth := p.DepthPenalty
	if depth == 0 {
		depth = 1
	}
	return []saturationPolicy{
		{"greedy", 0, 0},
		{"load-aware", penalty, 0},
		{"depth-aware", penalty, depth},
	}
}

// sweepMessages is the sweeps' message budget. It defaults to 3·n: deep
// enough for an overloaded hot node to push its backlog well past the
// p99 bound, so the sweep can actually observe saturation (an explicit
// -msgs is respected, but small values make the knee a lower bound).
func sweepMessages(p Params) int {
	if p.Msgs > 0 {
		return p.Msgs
	}
	return 3 * p.N
}

// sweepConfigFor builds the SweepConfig the saturation experiments
// share.
func sweepConfigFor(p Params, pol saturationPolicy) load.SweepConfig {
	model := p.Arrival
	if model == "" {
		model = "poisson"
	}
	// The bracket minimum is -rate for open-loop sweeps and -clients
	// for closed-loop ones; zero lets the sweep pick its own.
	min := p.Rate
	if model == "closed" || model == "closed-loop" {
		min = float64(p.Clients)
	}
	return load.SweepConfig{
		Config: load.Config{
			Messages:     sweepMessages(p),
			Capacity:     p.Capacity,
			Workers:      p.Workers,
			Shards:       p.Shards,
			Penalty:      pol.penalty,
			DepthPenalty: pol.depth,
			Live:         p.Live || p.Aggregate || p.PIT,
			Aggregate:    p.Aggregate,
			PIT:          p.PIT,
			PITTimeout:   p.PITTimeout,
			PITWaiters:   p.PITWaiters,
			Route:        route.Options{DeadEnd: route.Backtrack},
			Telemetry:    p.Telemetry,
		},
		Model: model,
		Think: p.Think,
		Min:   min,
	}
}

// runSweep executes one policy's sweep over one scenario's network.
func runSweep(sc loadScenario, p Params, pol saturationPolicy, scenarioIdx int) (*load.SweepResult, error) {
	g, err := buildLoadGraph(sc, p, p.Seed+uint64(scenarioIdx))
	if err != nil {
		return nil, err
	}
	gen, err := workloadFor(p, "zipf")
	if err != nil {
		return nil, err
	}
	return load.Sweep(g, gen, sweepConfigFor(p, pol), p.Seed+uint64(4000+scenarioIdx))
}

// kneeMark annotates a sweep point's stability for the tables.
func kneeMark(stable bool) string {
	if stable {
		return "stable"
	}
	return "UNSTABLE"
}

// capMark annotates a knee row: a sweep that never saturated only
// bounds the capacity from below.
func capMark(saturated bool) string {
	if saturated {
		return "knee found"
	}
	return "no saturation (knee ≥ cap)"
}

// policyKnee is one (scenario, policy) row of the policy tables: the
// sweep, and the p99 latency of a re-run at 80% of its knee — the
// headroom a production operator would actually run at (0 when no load
// level was stable).
type policyKnee struct {
	sweep   *load.SweepResult
	p99At80 float64
}

// addPolicyRows runs every policy over every scenario, appends one
// knee-summary row per (scenario, policy), and returns the rows'
// measurements in table order. The scenario's network is built once
// and shared by every policy's sweep and backoff run.
func addPolicyRows(t *sim.Table, p Params, scenarios []loadScenario) ([]policyKnee, error) {
	var rows []policyKnee
	for i, sc := range scenarios {
		g, err := buildLoadGraph(sc, p, p.Seed+uint64(i))
		if err != nil {
			return nil, err
		}
		gen, err := workloadFor(p, "zipf")
		if err != nil {
			return nil, err
		}
		for _, pol := range saturationPolicies(p) {
			cfg := sweepConfigFor(p, pol)
			res, err := load.Sweep(g, gen, cfg, p.Seed+uint64(4000+i))
			if err != nil {
				return nil, err
			}
			if res.KneePoint() == nil {
				t.AddValues(sc.label, pol.name, res.Knee, 0.0, 0.0, 0.0, "UNSTABLE at min load")
				rows = append(rows, policyKnee{sweep: res})
				continue
			}
			// NewArrival re-resolves the swept family; a closed-loop knee
			// is a client count, so 80% rounds to a whole client.
			at := 0.8 * res.Knee
			arr, err := load.NewArrival(cfg.Model, at, int(at+0.5), cfg.Think)
			if err != nil {
				return nil, err
			}
			runCfg := cfg.Config
			runCfg.Arrival = arr
			backoff, err := load.Run(g, gen, runCfg, p.Seed+uint64(4000+i))
			if err != nil {
				return nil, err
			}
			t.AddValues(sc.label, pol.name,
				res.Knee, res.KneeThroughput, res.KneeP99,
				backoff.LatencyP99, capMark(res.Saturated))
			rows = append(rows, policyKnee{res, backoff.LatencyP99})
		}
	}
	return rows, nil
}

// saturationFields is the BENCH_saturation.json schema: the healthy
// ring's three rows of ext.saturation.policies — the capacity knee of
// Zipf traffic under open-loop arrivals, located for the paper's
// hop-optimal greedy and for the load-aware and depth-aware congestion
// policies. Each baseline_throughput is its sweep's minimal-load
// throughput, the floor a correctly located knee cannot undercut.
var saturationFields = scenarioFields(
	Field{Name: "workload", Gate: Text},
	Field{Name: "arrival_model", Gate: Text},
	Field{Name: "knee_rate_greedy", Unit: "msgs/tick", Gate: Positive, Row: 0, Col: "knee"},
	Field{Name: "knee_rate_aware", Unit: "msgs/tick", Gate: Positive, Row: 1, Col: "knee"},
	Field{Name: "knee_rate_depth", Unit: "msgs/tick", Gate: Positive, Row: 2, Col: "knee"},
	Field{Name: "knee_throughput_greedy", Unit: "msgs/tick", Gate: Positive, AtLeast: "baseline_throughput_greedy", Row: 0, Col: "knee thr"},
	Field{Name: "knee_throughput_aware", Unit: "msgs/tick", Gate: Positive, AtLeast: "baseline_throughput_aware", Row: 1, Col: "knee thr"},
	Field{Name: "knee_throughput_depth", Unit: "msgs/tick", Gate: Positive, AtLeast: "baseline_throughput_depth", Row: 2, Col: "knee thr"},
	Field{Name: "baseline_throughput_greedy", Unit: "msgs/tick", Gate: Positive},
	Field{Name: "baseline_throughput_aware", Unit: "msgs/tick", Gate: Positive},
	Field{Name: "baseline_throughput_depth", Unit: "msgs/tick", Gate: Positive},
	Field{Name: "p99_at_80pct_knee_greedy", Unit: "ticks", Gate: Positive, Row: 0, Col: "p99@80%"},
	Field{Name: "p99_at_80pct_knee_aware", Unit: "ticks", Gate: Positive, Row: 1, Col: "p99@80%"},
	Field{Name: "p99_at_80pct_knee_depth", Unit: "ticks", Gate: Positive, Row: 2, Col: "p99@80%"},
)

func measureSaturationPolicies(p Params) (*sim.Table, Values, error) {
	p = p.withDefaults(1<<10, 1, 0)
	t := sim.NewTable(
		fmt.Sprintf("Knee by routing policy, healthy networks (n≈%d, l=%d, seed=%d)",
			p.N, p.lgLinks(), p.Seed),
		"config", "policy", "knee", "knee thr", "p99@knee", "p99@80%", "verdict")
	scenarios := []loadScenario{
		{"ring healthy", 1, 0},
		{"torus healthy", 2, 0},
	}
	rows, err := addPolicyRows(t, p, scenarios)
	if err != nil {
		return nil, nil, err
	}
	v := scenarioValues(p, sweepMessages(p))
	first := rows[0].sweep.Points[0].Result
	v["workload"], v["arrival_model"] = first.Workload, rows[0].sweep.Model
	for i, suffix := range []string{"greedy", "aware", "depth"} {
		v.setKnee(suffix, rows[i].sweep)
		v["baseline_throughput_"+suffix] = rows[i].sweep.Points[0].Result.Throughput
		v["p99_at_80pct_knee_"+suffix] = rows[i].p99At80
	}
	return t, v, nil
}

func init() {
	register(Experiment{
		ID:       "ext.saturation.knee",
		Artifact: "saturation extension: the capacity knee of Zipf traffic on healthy networks",
		Description: "open-loop saturation sweep (Poisson arrivals by default) on a healthy ring " +
			"and 2-D torus: every evaluated load level's throughput and latency tail, " +
			"and the located knee — the largest offered rate at which queues still drain",
		Run: func(p Params) (*sim.Table, error) {
			p = p.withDefaults(1<<10, 1, 0)
			t := sim.NewTable(
				fmt.Sprintf("Capacity knee under Zipf traffic (n≈%d, l=%d, seed=%d)",
					p.N, p.lgLinks(), p.Seed),
				"config", "offered", "throughput", "p50 lat", "p99 lat", "queue depth", "verdict")
			scenarios := []loadScenario{
				{"ring healthy", 1, 0},
				{"torus healthy", 2, 0},
			}
			for i, sc := range scenarios {
				res, err := runSweep(sc, p, saturationPolicy{name: "greedy"}, i)
				if err != nil {
					return nil, err
				}
				for _, pt := range res.Points {
					t.AddValues(sc.label, pt.Load, pt.Result.Throughput,
						pt.Result.LatencyP50, pt.Result.LatencyP99,
						pt.Result.MaxQueueDepth, kneeMark(pt.Stable))
				}
				t.AddValues(sc.label+" KNEE", res.Knee, res.KneeThroughput,
					0.0, res.KneeP99, 0, fmt.Sprintf("p99 bound %.1f", res.P99Bound))
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:       "ext.saturation.policies",
		Artifact: "saturation extension: does congestion-aware routing move the capacity knee?",
		Description: "greedy vs load-aware (cumulative charged load) vs depth-aware (instantaneous " +
			"queue depth) routing on healthy networks: each policy's knee, its throughput, " +
			"and the p99 latency at 80% of the knee",
		Headline: &Headline{
			File:    "BENCH_saturation.json",
			Summary: "capacity-knee headline: greedy vs load-aware vs depth-aware on the healthy ring",
			Fields:  saturationFields,
			Measure: measureSaturationPolicies,
		},
	})

	register(Experiment{
		ID:       "ext.saturation.failed",
		Artifact: "saturation extension: the knee under 30% node failures",
		Description: "the same greedy / load-aware / depth-aware knee comparison on 30%-failed " +
			"ring and torus — where dead ends and detours compound queueing, the " +
			"depth-aware policy should hold at least greedy's knee throughput",
		Run: func(p Params) (*sim.Table, error) {
			p = p.withDefaults(1<<10, 1, 0)
			t := sim.NewTable(
				fmt.Sprintf("Knee by routing policy, 30%% failed (n≈%d, l=%d, seed=%d)",
					p.N, p.lgLinks(), p.Seed),
				"config", "policy", "knee", "knee thr", "p99@knee", "p99@80%", "verdict")
			scenarios := []loadScenario{
				{"ring 30% failed", 1, 0.3},
				{"torus 30% failed", 2, 0.3},
			}
			if _, err := addPolicyRows(t, p, scenarios); err != nil {
				return nil, err
			}
			return t, nil
		},
	})
}
