package experiments

import (
	"repro/internal/load"
)

// ext.engine.flood measures what the discrete-event engine buys over
// the batch-snapshot pipeline: live per-hop congestion state
// (Config.Live), per-hop service aggregation of same-key lookups
// (Config.Aggregate), and the pending-interest response path
// (Config.PIT). Aggregation attacks the flood knee directly — the
// victim's in-neighbourhood serves one aggregated lookup for every
// queueful of duplicates — which is the lever past the replica ceiling
// PR 4 established; PIT suppression generalizes the collapse
// network-wide and charges the answer's return trip, the accounting
// the ext.pit.* experiments break down. Like every traffic experiment,
// results are independent of Params.Workers.

// engineModes is the snapshot / live / live+aggregate / live+pit
// ladder ext.engine.flood sweeps. Every rung sets all three switches:
// the ladder owns the engine mode, whatever -live, -aggregate and -pit
// say.
var engineModes = []variant{
	{label: "snapshot", edit: func(c *load.Config) { c.Live, c.Aggregate, c.PIT = false, false, false }},
	{label: "live", edit: func(c *load.Config) { c.Live, c.Aggregate, c.PIT = true, false, false }},
	{label: "live+aggregate", edit: func(c *load.Config) { c.Live, c.Aggregate, c.PIT = true, true, false }},
	{label: "live+pit", edit: func(c *load.Config) { c.Live, c.Aggregate, c.PIT = true, false, true }},
}

// modeNote is the plan note of the table whose variants are engine
// modes: one per mode.
const modeNote = "%s: plan=%s — %s"

// engineFloodFields is the BENCH_engine.json schema: the failed
// torus's four rows of ext.engine.flood. The snapshot row is the
// pre-engine pipeline byte for byte, so knee_lift_aggregate is the
// headline claim: same-key service aggregation lifts the flood knee
// past what replication alone buys. knee_lift_pit is the response
// path's gate, and it compares knee RATES against the live+aggregate
// row — not knee throughputs, because aggregation's merged completions
// are never charged an answer leg, so its throughput counts return-trip
// work the response path actually performs. pit_knee_saturated false
// means suppression kept every tested rate stable and the knee ran into
// the sweep's bracket cap, a lower bound on capacity. The suppression
// ledger at the PIT knee balances: pit_suppressed =
// pit_multicast_fanout + pit_expired (expiries can legitimately be
// zero — an answer can beat every interest's lifetime).
var engineFloodFields = floodFields(
	Field{Name: "knee_rate_snapshot", Unit: "msgs/tick", Gate: Positive, Row: 0, Col: "knee"},
	Field{Name: "knee_rate_live", Unit: "msgs/tick", Gate: Positive, Row: 1, Col: "knee"},
	Field{Name: "knee_rate_live_aggregate", Unit: "msgs/tick", Gate: Positive, Row: 2, Col: "knee"},
	Field{Name: "knee_rate_live_pit", Unit: "msgs/tick", Gate: Positive, Row: 3, Col: "knee"},
	Field{Name: "knee_throughput_snapshot", Unit: "msgs/tick", Gate: Positive, AtLeast: "baseline_throughput", Row: 0, Col: "knee thr"},
	Field{Name: "knee_throughput_live", Unit: "msgs/tick", Gate: Positive, AtLeast: "baseline_throughput", Row: 1, Col: "knee thr"},
	Field{Name: "knee_throughput_live_aggregate", Unit: "msgs/tick", Gate: Positive, AtLeast: "baseline_throughput", Row: 2, Col: "knee thr"},
	Field{Name: "knee_throughput_live_pit", Unit: "msgs/tick", Gate: Positive, AtLeast: "baseline_throughput", Row: 3, Col: "knee thr"},
	Field{Name: "baseline_throughput", Unit: "msgs/tick", Gate: Positive},
	Field{Name: "aggregated_at_knee", Unit: "lookups", Gate: PositiveInt, Row: 2, Col: "aggregated"},
	Field{Name: "live_over_snapshot_ratio", Unit: "ratio to snapshot", Gate: Positive, Row: 1, Col: "lift"},
	Field{Name: "knee_lift_aggregate", Unit: "ratio to snapshot", Gate: Lift, Row: 2, Col: "lift"},
	Field{Name: "knee_lift_pit", Unit: "knee-rate ratio to live+aggregate", Gate: Lift},
	Field{Name: "pit_knee_saturated", Gate: Flag},
	Field{Name: "pit_interest_lifetime", Unit: "ticks", Gate: Positive},
	Field{Name: "pit_suppressed", Unit: "lookups", Gate: NonNegative},
	Field{Name: "pit_multicast_fanout", Unit: "lookups", Gate: NonNegative},
	Field{Name: "pit_expired", Unit: "lookups", Gate: NonNegative},
)

var engineFloodGrid = &grid{
	n: 1 << 10, msgsPerNode: 3,
	title:     sweepTitle("Flood knee by engine mode, k=4+cache (n≈%d, l=%d, seed=%d)"),
	columns:   []string{"config", "mode", "knee", "knee thr", "p99@knee", "aggregated", "lift", "verdict"},
	scenarios: []loadScenario{torusFailed, ringFailed},
	variants:  func(Params) []variant { return engineModes },
	base:      func(p Params, c *load.Config) { c.Replication = floodReplication(p) },
	workload:  "flood",
	seedBase:  8000,
	sweep:     true,
	// Lift is relative to the snapshot row; 0 marks "no baseline" (the
	// snapshot sweep was unstable), not a neutral 1.0.
	liftOf:   kneeThroughput,
	planNote: modeNote,
	row: func(c *cell, add addRow) error {
		knee, h := c.atKnee(), c.head
		add(c.sc.label, c.v.label, c.sweep.Knee, c.sweep.KneeThroughput, c.sweep.KneeP99,
			knee.Aggregated, c.lift, c.verdict())
		if c.si > 0 {
			return nil // the headline is the failed torus
		}
		h.setKnee([...]string{"snapshot", "live", "live_aggregate", "live_pit"}[c.vi], c.sweep)
		switch c.vi {
		case 0:
			h.setFlood(c, c.cfg.Replication)
		case 1:
			h["live_over_snapshot_ratio"] = c.lift
		case 2:
			h["knee_lift_aggregate"] = c.lift
			h["aggregated_at_knee"] = knee.Aggregated
		case 3:
			h["knee_lift_pit"] = 0.0
			if agg := h["knee_rate_live_aggregate"].(float64); agg > 0 {
				h["knee_lift_pit"] = c.sweep.Knee / agg
			}
			h["pit_knee_saturated"] = c.sweep.Saturated
			h["pit_interest_lifetime"] = c.cfg.ResolvedPITTimeout()
			h["pit_suppressed"] = knee.Suppressed
			h["pit_multicast_fanout"] = knee.MulticastFanout
			h["pit_expired"] = knee.PITExpired
		}
		return nil
	},
}

func init() {
	register(Experiment{
		ID:       "ext.engine.flood",
		Artifact: "engine extension: live routing & service aggregation vs the flood knee",
		Description: "single-target flood on 30%-failed torus and ring with k = 4 replicas plus " +
			"cache-on-path, swept in the engine's four modes — batch-snapshot routing, " +
			"live per-hop state, live with same-key service aggregation, and live with " +
			"the pending-interest response path. The headline is the aggregated knee: " +
			"duplicates meeting in a queue collapse into one service, lifting the flood " +
			"knee past the replication-only ceiling",
		Headline: &Headline{
			File:    "BENCH_engine.json",
			Summary: "engine-mode headline: snapshot vs live vs live+aggregate vs live+pit on the failed torus",
			Fields:  engineFloodFields,
			Measure: engineFloodGrid.measure,
		},
	})
}
