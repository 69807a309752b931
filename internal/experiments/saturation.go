package experiments

import (
	"fmt"

	"repro/internal/load"
)

// The ext.saturation.* experiments answer the capacity question the
// fixed-rate ext.load.* runs leave open: at what offered load does the
// network stop keeping up, and do the congestion-aware routing policies
// move that point? Each sweeps Zipf traffic over seeded networks and
// tabulates the latency-vs-throughput curve and the knee.

// policyVariants resolves the greedy / load-aware / depth-aware ladder,
// honouring -penalty and -depth overrides. Every rung sets both weights:
// the ladder owns them.
func policyVariants(p Params) []variant {
	policy := func(label string, penalty, depth float64) variant {
		return variant{label: label, edit: func(c *load.Config) { c.Penalty, c.DepthPenalty = penalty, depth }}
	}
	penalty, depth := orOne(p.Penalty), orOne(p.DepthPenalty)
	return []variant{
		policy("greedy", 0, 0),
		policy("load-aware", penalty, 0),
		policy("depth-aware", penalty, depth),
	}
}

// kneeMark annotates a sweep point's stability for the tables.
func kneeMark(stable bool) string {
	if stable {
		return "stable"
	}
	return "UNSTABLE"
}

// kneeByPolicy is the policy comparison both policy tables run: every
// policy's knee on every scenario, and the p99 latency of a re-run at
// 80% of it — the headroom a production operator would actually run at.
// what completes the title's format string.
func kneeByPolicy(what string, row func(*cell, addRow) error, scenarios ...loadScenario) *grid {
	return &grid{
		n: 1 << 10, msgsPerNode: 3,
		title:     sweepTitle("Knee by routing policy, " + what + " (n≈%d, l=%d, seed=%d)"),
		columns:   []string{"config", "policy", "knee", "knee thr", "p99@knee", "p99@80%", "verdict"},
		scenarios: scenarios,
		variants:  policyVariants,
		workload:  "zipf",
		seedBase:  4000,
		sweep:     true,
		rerunAt:   0.8,
		row:       row,
	}
}

func policyRow(c *cell, add addRow) error {
	add(c.sc.label, c.v.label, c.sweep.Knee, c.sweep.KneeThroughput, c.sweep.KneeP99,
		c.run.LatencyP99, c.verdict())
	return nil
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

var saturationPoliciesGrid = kneeByPolicy("healthy networks", func(c *cell, add addRow) error {
	if c.si == 0 { // the headline is the healthy ring
		first := c.sweep.Points[0].Result
		suffix := [...]string{"greedy", "aware", "depth"}[c.vi]
		c.head["workload"], c.head["arrival_model"] = first.Workload, c.sweep.Model
		c.head.setKnee(suffix, c.sweep)
		c.head["baseline_throughput_"+suffix] = first.Throughput
		c.head["p99_at_80pct_knee_"+suffix] = c.run.LatencyP99
	}
	return policyRow(c, add)
}, ringHealthy, torusHealthy)

var saturationKneeGrid = &grid{
	n: 1 << 10, msgsPerNode: 3,
	title:     sweepTitle("Capacity knee under Zipf traffic (n≈%d, l=%d, seed=%d)"),
	columns:   []string{"config", "offered", "throughput", "p50 lat", "p99 lat", "queue depth", "verdict"},
	scenarios: []loadScenario{ringHealthy, torusHealthy},
	workload:  "zipf",
	seedBase:  4000,
	sweep:     true,
	row: func(c *cell, add addRow) error {
		for _, pt := range c.sweep.Points {
			add(c.sc.label, pt.Load, pt.Result.Throughput,
				pt.Result.LatencyP50, pt.Result.LatencyP99,
				pt.Result.MaxQueueDepth, kneeMark(pt.Stable))
		}
		add(c.sc.label+" KNEE", c.sweep.Knee, c.sweep.KneeThroughput,
			0.0, c.sweep.KneeP99, 0, fmt.Sprintf("p99 bound %.1f", c.sweep.P99Bound))
		return nil
	},
}

func init() {
	register(Experiment{
		ID:       "ext.saturation.knee",
		Artifact: "saturation extension: the capacity knee of Zipf traffic on healthy networks",
		Description: "open-loop saturation sweep (Poisson arrivals by default) on a healthy ring " +
			"and 2-D torus: every evaluated load level's throughput and latency tail, " +
			"and the located knee — the largest offered rate at which queues still drain",
		Run: saturationKneeGrid.run,
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
			Measure: saturationPoliciesGrid.measure,
		},
	})

	register(Experiment{
		ID:       "ext.saturation.failed",
		Artifact: "saturation extension: the knee under 30% node failures",
		Description: "the same greedy / load-aware / depth-aware knee comparison on 30%-failed " +
			"ring and torus — where dead ends and detours compound queueing, the " +
			"depth-aware policy should hold at least greedy's knee throughput",
		Run: kneeByPolicy("30%% failed", policyRow, ringFailed, torusFailed).run,
	})
}
