package experiments

import (
	"fmt"

	"repro/internal/load"
	"repro/internal/replica"
	"repro/internal/sim"
)

// The ext.engine.* experiments measure what the discrete-event engine
// buys over the batch-snapshot pipeline: live per-hop congestion state
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
// ladder every ext.engine experiment sweeps.
var engineModes = []struct {
	label                string
	live, aggregate, pit bool
}{
	{"snapshot", false, false, false},
	{"live", true, false, false},
	{"live+aggregate", true, true, false},
	{"live+pit", true, false, true},
}

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

func measureEngineFlood(p Params) (*sim.Table, Values, error) {
	p = p.withDefaults(1<<10, 1, 0)
	t := sim.NewTable(
		fmt.Sprintf("Flood knee by engine mode, k=4+cache (n≈%d, l=%d, seed=%d)",
			p.N, p.lgLinks(), p.Seed),
		"config", "mode", "knee", "knee thr", "p99@knee", "aggregated", "lift", "verdict")
	scenarios := []loadScenario{
		{"torus 30% failed", 2, 0.3},
		{"ring 30% failed", 1, 0.3},
	}
	opt := &replica.Options{K: p.Replicas, CacheThreshold: p.Cache, CacheCopies: floodCacheCopies}
	if opt.K <= 1 {
		opt.K = 4
	}
	if opt.CacheThreshold == 0 {
		opt.CacheThreshold = floodCacheThreshold
	}
	var torus []kneeRow // the headline scenario's rows
	var pitLifetime float64
	for i, sc := range scenarios {
		g, err := buildLoadGraph(sc, p, p.Seed+uint64(i))
		if err != nil {
			return nil, nil, err
		}
		var base float64
		for _, mode := range engineModes {
			gen, err := workloadFor(p, "flood")
			if err != nil {
				return nil, nil, err
			}
			cfg := sweepConfigFor(p, saturationPolicy{name: "greedy"})
			cfg.Live = mode.live
			cfg.Aggregate = mode.aggregate
			cfg.PIT = mode.pit
			cfg.Replication = opt
			res, err := load.Sweep(g, gen, cfg, p.Seed+uint64(8000+i))
			if err != nil {
				return nil, nil, err
			}
			// Lift is relative to the snapshot row; 0 marks "no
			// baseline" (the snapshot sweep was unstable), not a
			// neutral 1.0.
			lift := 0.0
			if !mode.live {
				base = res.KneeThroughput
				lift = 1
			} else if base > 0 {
				lift = res.KneeThroughput / base
			}
			if i == 0 {
				torus = append(torus, kneeRow{res, lift})
				if mode.pit {
					pitLifetime = cfg.ResolvedPITTimeout()
				}
			}
			kp := res.KneePoint()
			if kp == nil {
				t.AddValues(sc.label, mode.label, res.Knee, 0.0, 0.0, 0, 0.0, "UNSTABLE at min load")
				continue
			}
			t.AddValues(sc.label, mode.label, res.Knee, res.KneeThroughput, res.KneeP99,
				kp.Result.Aggregated, lift, capMark(res.Saturated))
			t.Note("%s: plan=%s — %s", mode.label, kp.Result.Plan, kp.Result.PlanReason)
		}
	}
	snap, live, agg, pit := torus[0], torus[1], torus[2], torus[3]
	v := floodValues(p, scenarios[0], opt, snap.sweep)
	v.setKnee("snapshot", snap.sweep)
	v.setKnee("live", live.sweep)
	v.setKnee("live_aggregate", agg.sweep)
	v.setKnee("live_pit", pit.sweep)
	v["baseline_throughput"] = snap.sweep.Points[0].Result.Throughput
	v["live_over_snapshot_ratio"] = live.lift
	v["knee_lift_aggregate"] = agg.lift
	v["knee_lift_pit"] = 0.0
	if agg.sweep.Knee > 0 {
		v["knee_lift_pit"] = pit.sweep.Knee / agg.sweep.Knee
	}
	v["aggregated_at_knee"] = atKnee(agg.sweep).Aggregated
	v["pit_knee_saturated"] = pit.sweep.Saturated
	v["pit_interest_lifetime"] = pitLifetime
	atPITKnee := atKnee(pit.sweep)
	v["pit_suppressed"] = atPITKnee.Suppressed
	v["pit_multicast_fanout"] = atPITKnee.MulticastFanout
	v["pit_expired"] = atPITKnee.PITExpired
	return t, v, nil
}

// atKnee returns the run at the sweep's knee. A sweep with no stable
// load has none: its counters read zero, and -validate rejects the
// headline on the zero knee.
func atKnee(s *load.SweepResult) *load.Result {
	if kp := s.KneePoint(); kp != nil {
		return kp.Result
	}
	return &load.Result{}
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
			Measure: measureEngineFlood,
		},
	})

	register(Experiment{
		ID:       "ext.engine.modes",
		Artifact: "engine extension: snapshot vs live congestion signals under Zipf traffic",
		Description: "fixed-rate Zipf traffic on healthy and 30%-failed networks routed with the " +
			"depth-aware policy in snapshot mode (signal frozen per batch) and live mode " +
			"(every forwarding decision reads the queues now): hottest node, queue depth, " +
			"latency tail, and the aggregation count when same-key coalescing is on",
		Run: func(p Params) (*sim.Table, error) {
			p = p.withDefaults(1<<12, 1, 2000)
			t := sim.NewTable(
				fmt.Sprintf("Engine modes under Zipf traffic (n≈%d, l=%d, msgs=%d, seed=%d)",
					p.N, p.lgLinks(), p.Msgs, p.Seed),
				"config", "mode", "max load", "max/mean", "p99 lat", "queue depth",
				"aggregated", "mean hops")
			scenarios := []loadScenario{
				{"ring healthy", 1, 0},
				{"torus 30% failed", 2, 0.3},
			}
			for i, sc := range scenarios {
				g, err := buildLoadGraph(sc, p, p.Seed+uint64(i))
				if err != nil {
					return nil, err
				}
				for _, mode := range engineModes {
					gen, err := workloadFor(p, "zipf")
					if err != nil {
						return nil, err
					}
					cfg, err := loadConfig(p)
					if err != nil {
						return nil, err
					}
					cfg.Live = mode.live
					cfg.Aggregate = mode.aggregate
					cfg.PIT = mode.pit
					cfg.DepthPenalty = 1
					if cfg.Rate == 0 {
						// Push past capacity so the live depth signal has
						// backlog to react to.
						cfg.Rate = 8
					}
					r, err := load.Run(g, gen, cfg, p.Seed+uint64(9000+i))
					if err != nil {
						return nil, err
					}
					t.AddValues(sc.label, r.Mode, r.MaxLoad, r.MaxMeanRatio(), r.LatencyP99,
						r.MaxQueueDepth, r.Aggregated, r.Search.MeanHops())
					t.Note("%s: plan=%s — %s", mode.label, r.Plan, r.PlanReason)
				}
			}
			return t, nil
		},
	})
}
