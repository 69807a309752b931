package experiments

import (
	"fmt"

	"repro/internal/load"
)

// ext.load.policy asks the production question the paper's
// single-message runs leave open: under sustained traffic, which nodes
// melt first, and does fault-tolerant greedy routing also balance load?
// It injects Zipf traffic through internal/load's virtual-time queueing
// simulator on a ring and a torus, healthy and 30% failed, routed
// hop-optimal greedy and load-aware. The greedy rows are the hot-spot
// profile of each network (per-node load, latency quantiles, queue
// depth); the load-aware rows are what the congestion penalty buys.
// -workload swaps the generator, so the same table compares uniform,
// sources and flood traffic.

// loadPolicyFields is the BENCH_load.json schema: the healthy ring's
// two rows of ext.load.policy — one seeded Zipf workload routed
// hop-optimal greedy and with the congestion-penalized load-aware
// policy — the numbers later scaling PRs are measured against.
var loadPolicyFields = scenarioFields(
	Field{Name: "workload", Gate: Text},
	Field{Name: "max_load_greedy", Unit: "msg-hops", Gate: PositiveInt, Row: 0, Col: "max load"},
	Field{Name: "max_load_aware", Unit: "msg-hops", Gate: PositiveInt, Row: 1, Col: "max load"},
	Field{Name: "max_mean_ratio_greedy", Unit: "ratio", Gate: Positive, Row: 0, Col: "max/mean"},
	Field{Name: "max_mean_ratio_aware", Unit: "ratio", Gate: Positive, Row: 1, Col: "max/mean"},
	Field{Name: "p99_latency_greedy", Unit: "ticks", Gate: Positive, Row: 0, Col: "p99 lat"},
	Field{Name: "p99_latency_aware", Unit: "ticks", Gate: Positive, Row: 1, Col: "p99 lat"},
	Field{Name: "mean_hops_greedy", Unit: "hops", Gate: Positive, Row: 0, Col: "mean hops"},
	Field{Name: "mean_hops_aware", Unit: "hops", Gate: Positive, Row: 1, Col: "mean hops"},
	Field{Name: "max_queue_depth_greedy", Unit: "msgs", Gate: PositiveInt, Row: 0, Col: "queue depth"},
)

var loadPolicyGrid = &grid{
	n: 1 << 12, msgs: 1000,
	title: func(p Params) string {
		return fmt.Sprintf("Greedy vs load-aware routing, %s traffic (n≈%d, l=%d, msgs=%d, penalty=%g, seed=%d)",
			p.Workload, p.N, p.lgLinks(), p.Msgs, orOne(p.Penalty), p.Seed)
	},
	columns: []string{"config", "policy", "max load", "mean load", "max/mean", "p50 lat", "p99 lat",
		"queue depth", "mean hops", "failed frac"},
	scenarios: []loadScenario{ringHealthy, ringFailed, torusHealthy, torusFailed},
	variants: func(p Params) []variant {
		return []variant{
			{label: "greedy"},
			{label: "load-aware", edit: func(c *load.Config) { c.Penalty = orOne(p.Penalty) }},
		}
	},
	workload: "zipf",
	seedBase: 3000,
	row: func(c *cell, add addRow) error {
		r := c.run
		add(c.sc.label, c.v.label,
			r.MaxLoad, r.MeanLoad, r.MaxMeanRatio(), r.LatencyP50, r.LatencyP99,
			r.MaxQueueDepth, r.Search.MeanHops(), r.Search.FailedFraction())
		if c.si > 0 {
			return nil // the headline is the healthy ring
		}
		suffix := [...]string{"_greedy", "_aware"}[c.vi]
		c.head["workload"] = r.Workload
		c.head["max_load"+suffix] = r.MaxLoad
		c.head["max_mean_ratio"+suffix] = r.MaxMeanRatio()
		c.head["p99_latency"+suffix] = r.LatencyP99
		c.head["mean_hops"+suffix] = r.Search.MeanHops()
		if c.vi == 0 {
			c.head["max_queue_depth_greedy"] = r.MaxQueueDepth
		}
		return nil
	},
}

func init() {
	register(Experiment{
		ID:       "ext.load.policy",
		Artifact: "traffic extension: hotspot load profile, hop-optimal greedy vs congestion-penalized (load-aware) routing",
		Description: "the same Zipf traffic routed twice per network — plain greedy and greedy " +
			"with congestion-penalized detours — on ring and torus, healthy and 30% " +
			"failed: per-node max/mean load, latency quantiles and queue depth; the " +
			"load-aware policy should cut max load at a bounded mean-hop cost",
		Headline: &Headline{
			File:    "BENCH_load.json",
			Summary: "traffic headline: greedy vs load-aware on the healthy ring",
			Fields:  loadPolicyFields,
			Measure: loadPolicyGrid.measure,
		},
	})
}
