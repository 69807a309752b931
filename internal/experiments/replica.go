package experiments

import (
	"fmt"

	"repro/internal/load"
	"repro/internal/replica"
	"repro/internal/sim"
)

// The ext.replica.* experiments measure what replication — the one
// lever routing policy cannot substitute for — buys under hot-key
// traffic. PR 3 established that the capacity knee of a single-target
// flood is pinned by the victim's in-neighbourhood; these experiments
// replicate the hot key k ways (internal/replica) and route every
// lookup to the nearest live replica (route.RouteAny), then re-locate
// the knee. Like every traffic experiment, results are independent of
// Params.Workers.

// floodCacheThreshold and floodCacheCopies are the cache-on-path
// defaults of the flood experiment's headline row: promote a hot key's
// eight busiest forwarders once 16 lookups have been observed. The
// threshold is low and the copy budget wide because the flood bottleneck
// is the last hop — each replica's in-neighbour — and caching there is
// exactly what breaks it.
const (
	floodCacheThreshold = 16
	floodCacheCopies    = 8
)

// floodVariant is one row of the flood-knee ladder.
type floodVariant struct {
	label string
	opt   *replica.Options
}

// floodLadder resolves the replica configurations the flood experiment
// sweeps: no replication, pure hash-spread at k = 2 and k, and the
// headline row — k static replicas plus popularity-triggered
// cache-on-path. -replicas overrides k (default 4), -cache the
// threshold.
func floodLadder(p Params) []floodVariant {
	k := p.Replicas
	if k <= 1 {
		k = 4
	}
	cache := p.Cache
	if cache == 0 {
		cache = floodCacheThreshold
	}
	return []floodVariant{
		{"k=1", nil},
		{"k=2", &replica.Options{K: 2}},
		{fmt.Sprintf("k=%d", k), &replica.Options{K: k}},
		{fmt.Sprintf("k=%d+cache", k), &replica.Options{
			K: k, CacheThreshold: cache, CacheCopies: floodCacheCopies,
		}},
	}
}

// replicationFor builds the load.Config replication block for k
// replicas, honouring a -cache threshold override.
func replicationFor(p Params, k int) *replica.Options {
	if k <= 1 && p.Cache == 0 {
		return nil
	}
	return &replica.Options{K: k, CacheThreshold: p.Cache}
}

// floodFields opens the schemas of the two flood-knee headlines with
// their shared acceptance scenario — a single-target flood on the
// 30%-failed torus, the first scenario of ext.replica.flood and
// ext.engine.flood — and floodValues fills them from the scenario, the
// replicated rows' options, and any one of its sweeps.
func floodFields(rest ...Field) []Field {
	return scenarioFields(append([]Field{
		{Name: "workload", Gate: Text},
		{Name: "arrival_model", Gate: Text},
		{Name: "fail_frac", Unit: "share of nodes", Gate: Fraction},
		{Name: "replicas", Unit: "copies", Gate: PositiveInt},
		{Name: "cache_threshold", Unit: "lookups", Gate: PositiveInt},
		{Name: "cache_copies", Unit: "copies", Gate: PositiveInt},
	}, rest...)...)
}

// kneeRow is one measured row of a flood-knee table: the sweep and the
// lift over the scenario's baseline row the table prints for it (0
// when that baseline found no stable load).
type kneeRow struct {
	sweep *load.SweepResult
	lift  float64
}

func floodValues(p Params, sc loadScenario, opt *replica.Options, s *load.SweepResult) Values {
	v := scenarioValues(p, sweepMessages(p))
	v["workload"], v["arrival_model"] = s.Points[0].Result.Workload, s.Model
	v["fail_frac"] = sc.failFrac
	v["replicas"], v["cache_threshold"], v["cache_copies"] = opt.K, opt.CacheThreshold, opt.CacheCopies
	return v
}

// replicaFloodFields is the BENCH_replica.json schema: the failed
// torus's k=1 and k=4+cache rows of ext.replica.flood. knee_lift is
// the headline claim (≥ 3x at the default scale); baseline_throughput
// is the unreplicated sweep's minimal-load throughput.
var replicaFloodFields = floodFields(
	Field{Name: "knee_rate_k1", Unit: "msgs/tick", Gate: Positive, Row: 0, Col: "knee"},
	Field{Name: "knee_rate_k4", Unit: "msgs/tick", Gate: Positive, Row: 3, Col: "knee"},
	Field{Name: "knee_throughput_k1", Unit: "msgs/tick", Gate: Positive, AtLeast: "baseline_throughput", Row: 0, Col: "knee thr"},
	Field{Name: "knee_throughput_k4", Unit: "msgs/tick", Gate: Positive, AtLeast: "baseline_throughput", Row: 3, Col: "knee thr"},
	Field{Name: "baseline_throughput", Unit: "msgs/tick", Gate: Positive},
	Field{Name: "knee_lift", Unit: "ratio to k=1", Gate: Lift, Row: 3, Col: "lift"},
)

func measureReplicaFlood(p Params) (*sim.Table, Values, error) {
	p = p.withDefaults(1<<10, 1, 0)
	t := sim.NewTable(
		fmt.Sprintf("Flood knee by replica configuration (n≈%d, l=%d, seed=%d)",
			p.N, p.lgLinks(), p.Seed),
		"config", "replicas", "knee", "knee thr", "p99@knee", "lift", "verdict")
	scenarios := []loadScenario{
		{"torus 30% failed", 2, 0.3},
		{"ring 30% failed", 1, 0.3},
	}
	ladder := floodLadder(p)
	var torus []kneeRow // the headline scenario's rows
	for i, sc := range scenarios {
		g, err := buildLoadGraph(sc, p, p.Seed+uint64(i))
		if err != nil {
			return nil, nil, err
		}
		var base float64
		for _, variant := range ladder {
			gen, err := workloadFor(p, "flood")
			if err != nil {
				return nil, nil, err
			}
			cfg := sweepConfigFor(p, saturationPolicy{name: "greedy"})
			cfg.Replication = variant.opt
			res, err := load.Sweep(g, gen, cfg, p.Seed+uint64(5000+i))
			if err != nil {
				return nil, nil, err
			}
			lift := 0.0
			if variant.opt == nil {
				base = res.KneeThroughput
				lift = 1
			} else if base > 0 {
				lift = res.KneeThroughput / base
			}
			if i == 0 {
				torus = append(torus, kneeRow{res, lift})
			}
			if res.KneePoint() == nil {
				t.AddValues(sc.label, variant.label, res.Knee, 0.0, 0.0, 0.0, "UNSTABLE at min load")
				continue
			}
			t.AddValues(sc.label, variant.label, res.Knee, res.KneeThroughput, res.KneeP99,
				lift, capMark(res.Saturated))
		}
	}
	k1, k4 := torus[0], torus[len(torus)-1]
	v := floodValues(p, scenarios[0], ladder[len(ladder)-1].opt, k1.sweep)
	v.setKnee("k1", k1.sweep)
	v.setKnee("k4", k4.sweep)
	v["baseline_throughput"] = k1.sweep.Points[0].Result.Throughput
	v["knee_lift"] = k4.lift
	return t, v, nil
}

func init() {
	register(Experiment{
		ID:       "ext.replica.flood",
		Artifact: "replication extension: hot-key replicas break the flood knee",
		Description: "single-target flood on 30%-failed torus and ring: the capacity knee with no " +
			"replication, hash-spread k = 2 and k = 4, and k = 4 plus popularity-triggered " +
			"cache-on-path, all under nearest-replica greedy routing — the headline claim " +
			"is a >= 3x knee-throughput lift at k = 4 (+cache) on the failed torus",
		Headline: &Headline{
			File:    "BENCH_replica.json",
			Summary: "flood-knee replication headline: k=1 vs k=4+cache on the failed torus",
			Fields:  replicaFloodFields,
			Measure: measureReplicaFlood,
		},
	})

	register(Experiment{
		ID:       "ext.replica.zipf",
		Artifact: "replication extension: placement strategies under Zipf hot keys",
		Description: "Zipf-popular lookups on a healthy ring and torus routed with no replication, " +
			"hash-spread and antipodal k = 4 replicas, and popularity-triggered " +
			"cache-on-path: hottest-node load, delivery concentration, and latency tail",
		Run: func(p Params) (*sim.Table, error) {
			p = p.withDefaults(1<<12, 1, 1000)
			cacheAt := p.Cache
			if cacheAt == 0 {
				cacheAt = 25
			}
			k := p.Replicas
			if k <= 1 {
				k = 4
			}
			t := sim.NewTable(
				fmt.Sprintf("Zipf traffic by replica placement (n≈%d, l=%d, msgs=%d, seed=%d)",
					p.N, p.lgLinks(), p.Msgs, p.Seed),
				"config", "placement", "max load", "max/mean", "max served", "p99 lat",
				"mean hops", "cached")
			scenarios := []loadScenario{
				{"ring healthy", 1, 0},
				{"torus healthy", 2, 0},
			}
			placements := []struct {
				label string
				opt   *replica.Options
			}{
				{"none", nil},
				{"hash", &replica.Options{K: k}},
				{"antipodal", &replica.Options{K: k, Strategy: "antipodal"}},
				{"cache-on-path", &replica.Options{CacheThreshold: cacheAt}},
			}
			for i, sc := range scenarios {
				g, err := buildLoadGraph(sc, p, p.Seed+uint64(i))
				if err != nil {
					return nil, err
				}
				for _, pl := range placements {
					gen, err := workloadFor(p, "zipf")
					if err != nil {
						return nil, err
					}
					cfg, err := loadConfig(p)
					if err != nil {
						return nil, err
					}
					cfg.Replication = pl.opt
					r, err := load.Run(g, gen, cfg, p.Seed+uint64(6000+i))
					if err != nil {
						return nil, err
					}
					t.AddValues(sc.label, pl.label, r.MaxLoad, r.MaxMeanRatio(),
						r.MaxServed(), r.LatencyP99, r.Search.MeanHops(), r.CacheCopies)
				}
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:       "ext.replica.churn",
		Artifact: "replication extension: replica survivability as failures deepen",
		Description: "single-target flood on a torus at 0/15/30/45% node failures, k = 1 vs k = 4: " +
			"delivered fraction, surviving replicas actually serving, hottest-node load " +
			"and latency tail — replicas keep the hot key reachable and spread as the " +
			"primary's neighbourhood crumbles (dead replicas degrade to plain greedy)",
		Run: func(p Params) (*sim.Table, error) {
			p = p.withDefaults(1<<10, 1, 800)
			k := p.Replicas
			if k <= 1 {
				k = 4
			}
			t := sim.NewTable(
				fmt.Sprintf("Flood under deepening failures (n≈%d, l=%d, msgs=%d, k=%d, seed=%d)",
					p.N, p.lgLinks(), p.Msgs, k, p.Seed),
				"failed frac", "k", "delivered", "serving", "max load", "max/mean", "p99 lat")
			for i, failFrac := range []float64{0, 0.15, 0.30, 0.45} {
				sc := loadScenario{fmt.Sprintf("torus %.0f%%", failFrac*100), 2, failFrac}
				g, err := buildLoadGraph(sc, p, p.Seed+uint64(i))
				if err != nil {
					return nil, err
				}
				for _, kk := range []int{1, k} {
					gen, err := workloadFor(p, "flood")
					if err != nil {
						return nil, err
					}
					cfg, err := loadConfig(p)
					if err != nil {
						return nil, err
					}
					cfg.Replication = replicationFor(p, kk)
					r, err := load.Run(g, gen, cfg, p.Seed+uint64(7000+i))
					if err != nil {
						return nil, err
					}
					t.AddValues(failFrac, kk,
						float64(r.Delivered)/float64(r.Injected), r.ServingPoints(),
						r.MaxLoad, r.MaxMeanRatio(), r.LatencyP99)
				}
			}
			return t, nil
		},
	})
}
