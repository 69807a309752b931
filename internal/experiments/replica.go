package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/load"
	"repro/internal/replica"
)

// The ext.replica.* experiments measure what replication — the one
// lever routing policy cannot substitute for — buys under hot-key
// traffic. PR 3 established that the capacity knee of a single-target
// flood is pinned by the victim's in-neighbourhood; these experiments
// replicate the hot key k ways (internal/replica) and route every
// lookup to the nearest live replica (route.RouteAny), then re-locate
// the knee.

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

// floodReplication is the flood tables' headline configuration: k
// static replicas plus popularity-triggered cache-on-path. -replicas
// overrides k (default 4), -cache the threshold.
func floodReplication(p Params) *replica.Options {
	cache := p.Cache
	if cache == 0 {
		cache = floodCacheThreshold
	}
	return &replica.Options{K: p.replicaCount(), CacheThreshold: cache, CacheCopies: floodCacheCopies}
}

// replicated is the variant running under opt — nil for none, whatever
// -replicas and -cache say: a replication ladder owns the knob.
func replicated(label string, opt *replica.Options) variant {
	return variant{label: label, edit: func(c *load.Config) { c.Replication = opt }}
}

// floodLadder resolves the replica configurations the flood experiment
// sweeps: no replication, pure hash-spread at k = 2 and k, and the
// headline row.
func floodLadder(p Params) []variant {
	k := p.replicaCount()
	return []variant{
		replicated("k=1", nil),
		replicated("k=2", &replica.Options{K: 2}),
		replicated(fmt.Sprintf("k=%d", k), &replica.Options{K: k}),
		replicated(fmt.Sprintf("k=%d+cache", k), floodReplication(p)),
	}
}

// floodFields opens the schemas of the two flood-knee headlines with
// their shared acceptance scenario — a single-target flood on the
// 30%-failed torus, the first scenario of ext.replica.flood and
// ext.engine.flood — and setFlood fills them, and the baseline_throughput
// both schemas go on to list, from that scenario's baseline row and the
// replicated rows' options.
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

func (v Values) setFlood(baseline *cell, opt *replica.Options) {
	first := baseline.sweep.Points[0].Result
	v["workload"], v["arrival_model"] = first.Workload, baseline.sweep.Model
	v["fail_frac"] = baseline.sc.failFrac
	v["replicas"], v["cache_threshold"], v["cache_copies"] = opt.K, opt.CacheThreshold, opt.CacheCopies
	v["baseline_throughput"] = first.Throughput
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

var replicaFloodGrid = &grid{
	n: 1 << 10, msgsPerNode: 3,
	title:     sweepTitle("Flood knee by replica configuration (n≈%d, l=%d, seed=%d)"),
	columns:   []string{"config", "replicas", "knee", "knee thr", "p99@knee", "lift", "verdict"},
	scenarios: []loadScenario{torusFailed, ringFailed},
	variants:  floodLadder,
	workload:  "flood",
	seedBase:  5000,
	sweep:     true,
	liftOf:    kneeThroughput,
	row: func(c *cell, add addRow) error {
		add(c.sc.label, c.v.label, c.sweep.Knee, c.sweep.KneeThroughput, c.sweep.KneeP99,
			c.lift, c.verdict())
		switch {
		case c.si > 0: // the headline is the failed torus
		case c.vi == 0:
			c.head.setFlood(c, floodReplication(c.p))
			c.head.setKnee("k1", c.sweep)
		case c.vi == 3:
			c.head.setKnee("k4", c.sweep)
			c.head["knee_lift"] = c.lift
		}
		return nil
	},
}

var replicaZipfGrid = &grid{
	n: 1 << 12, msgs: 1000,
	title: runTitle("Zipf traffic by replica placement (n≈%d, l=%d, msgs=%d, seed=%d)"),
	columns: []string{"config", "placement", "max load", "max/mean", "max served", "p99 lat",
		"mean hops", "cached"},
	scenarios: []loadScenario{ringHealthy, torusHealthy},
	variants: func(p Params) []variant {
		cacheAt := p.Cache
		if cacheAt == 0 {
			cacheAt = 25
		}
		k := p.replicaCount()
		return []variant{
			replicated("none", nil),
			replicated("hash", &replica.Options{K: k}),
			replicated("antipodal", &replica.Options{K: k, Strategy: "antipodal"}),
			replicated("cache-on-path", &replica.Options{CacheThreshold: cacheAt}),
		}
	},
	workload: "zipf",
	seedBase: 6000,
	row: func(c *cell, add addRow) error {
		r := c.run
		add(c.sc.label, c.v.label, r.MaxLoad, r.MaxMeanRatio(),
			r.MaxServed(), r.LatencyP99, r.Search.MeanHops(), r.CacheCopies)
		return nil
	},
}

var replicaChurnGrid = &grid{
	n: 1 << 10, msgs: 800,
	title: func(p Params) string {
		return fmt.Sprintf("Flood under deepening failures (n≈%d, l=%d, msgs=%d, k=%d, seed=%d)",
			p.N, p.lgLinks(), p.Msgs, p.replicaCount(), p.Seed)
	},
	columns: []string{"failed frac", "k", "delivered", "serving", "max load", "max/mean", "p99 lat"},
	scenarios: []loadScenario{
		{dim: 2, failFrac: 0}, {dim: 2, failFrac: 0.15}, {dim: 2, failFrac: 0.30}, {dim: 2, failFrac: 0.45},
	},
	variants: func(p Params) []variant {
		// k replicas, honouring a -cache threshold override.
		atK := func(k int) variant {
			var opt *replica.Options
			if k > 1 || p.Cache > 0 {
				opt = &replica.Options{K: k, CacheThreshold: p.Cache}
			}
			return replicated(strconv.Itoa(k), opt)
		}
		return []variant{atK(1), atK(p.replicaCount())}
	},
	workload: "flood",
	seedBase: 7000,
	row: func(c *cell, add addRow) error {
		r := c.run
		add(c.sc.failFrac, c.v.label,
			float64(r.Delivered)/float64(r.Injected), r.ServingPoints(),
			r.MaxLoad, r.MaxMeanRatio(), r.LatencyP99)
		return nil
	},
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
			Measure: replicaFloodGrid.measure,
		},
	})

	register(Experiment{
		ID:       "ext.replica.zipf",
		Artifact: "replication extension: placement strategies under Zipf hot keys",
		Description: "Zipf-popular lookups on a healthy ring and torus routed with no replication, " +
			"hash-spread and antipodal k = 4 replicas, and popularity-triggered " +
			"cache-on-path: hottest-node load, delivery concentration, and latency tail",
		Run: replicaZipfGrid.run,
	})

	register(Experiment{
		ID:       "ext.replica.churn",
		Artifact: "replication extension: replica survivability as failures deepen",
		Description: "single-target flood on a torus at 0/15/30/45% node failures, k = 1 vs k = 4: " +
			"delivered fraction, surviving replicas actually serving, hottest-node load " +
			"and latency tail — replicas keep the hot key reachable and spread as the " +
			"primary's neighbourhood crumbles (dead replicas degrade to plain greedy)",
		Run: replicaChurnGrid.run,
	})
}
