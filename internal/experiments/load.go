package experiments

import (
	"fmt"
	"math"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/metric"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/sim"
)

// The ext.load.* experiments ask the production question the paper's
// single-message runs leave open: under sustained traffic, which nodes
// melt first, and does fault-tolerant greedy routing also balance load?
// Each experiment builds seeded networks, injects a workload through
// internal/load's virtual-time queueing simulator, and tabulates the
// per-node load profile and latency quantiles. Results are independent
// of Params.Workers by construction (load.Run's guarantee), so tables
// are byte-identical across machines for a fixed seed.

// loadScenario is one network under test: a space constructor plus a
// fraction of nodes to crash before traffic starts.
type loadScenario struct {
	label    string
	dim      int // 1 = ring, 2 = torus
	failFrac float64
}

// buildLoadGraph constructs the scenario's seeded network: a ring of n
// points for dim 1, a side²-torus of roughly n points for dim 2, with
// lg n long links per node at the dimension-harmonic exponent.
func buildLoadGraph(sc loadScenario, p Params, seed uint64) (*graph.Graph, error) {
	src := rng.New(seed)
	var space metric.Space
	var err error
	if sc.dim >= 2 {
		side := int(math.Round(math.Sqrt(float64(p.N))))
		if side < 8 {
			side = 8
		}
		space, err = metric.NewTorus(side, 2)
	} else {
		space, err = metric.NewRing(p.N)
	}
	if err != nil {
		return nil, err
	}
	g, err := graph.BuildIdeal(space, graph.PaperConfigFor(space, p.lgLinks()), src)
	if err != nil {
		return nil, err
	}
	if sc.failFrac > 0 {
		if _, err := failure.FailNodesFraction(g, sc.failFrac, src.Derive(1)); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// loadConfig resolves the shared load.Config from Params.
// -arrival/-rate/-clients/-think reshape the injection process of any
// traffic experiment; empty Arrival with zero Rate keeps the fixed-rate
// default.
func loadConfig(p Params) (load.Config, error) {
	cfg := load.Config{
		Messages:     p.Msgs,
		Capacity:     p.Capacity,
		Rate:         p.Rate,
		Workers:      p.Workers,
		Shards:       p.Shards,
		DepthPenalty: p.DepthPenalty,
		Live:         p.Live || p.Aggregate || p.PIT,
		Aggregate:    p.Aggregate,
		PIT:          p.PIT,
		PITTimeout:   p.PITTimeout,
		PITWaiters:   p.PITWaiters,
		Route:        route.Options{DeadEnd: route.Backtrack},
		Telemetry:    p.Telemetry,
	}
	if p.Replicas > 1 || p.Cache > 0 {
		cfg.Replication = &replica.Options{K: p.Replicas, CacheThreshold: p.Cache}
	}
	// Any churn knob attaches node dynamics with repair on; the load
	// layer resolves the gossip defaults and rejects churn without
	// -live, so a bad combination fails with its error instead of
	// silently running static.
	if p.ChurnRate > 0 || p.KillFrac > 0 {
		cfg.Churn = failure.ChurnSpec{
			Rate:         p.ChurnRate,
			KillFrac:     p.KillFrac,
			KillAt:       p.KillAt,
			GossipFanout: p.GossipFanout,
			Repair:       true,
		}
	}
	if p.Arrival != "" {
		arr, err := load.NewArrival(p.Arrival, p.Rate, p.Clients, p.Think)
		if err != nil {
			return load.Config{}, err
		}
		cfg.Arrival = arr
	}
	return cfg, nil
}

// workloadFor resolves Params.Workload with a per-experiment default.
func workloadFor(p Params, def string) (load.Generator, error) {
	name := p.Workload
	if name == "" {
		name = def
	}
	return load.NewGenerator(name, p.Skew)
}

func init() {
	register(Experiment{
		ID:       "ext.load.zipf",
		Artifact: "traffic extension: hotspot (Zipf) load profile across spaces and failures",
		Description: "Zipf-popular lookups through the virtual-time queueing simulator on a ring " +
			"and a 2-D torus, healthy and 30% failed: per-node max/mean load, latency " +
			"quantiles, and queue depth under backtrack routing",
		Run: func(p Params) (*sim.Table, error) {
			p = p.withDefaults(1<<12, 1, 1000)
			t := sim.NewTable(
				fmt.Sprintf("Load under Zipf traffic (n≈%d, l=%d, msgs=%d, seed=%d)",
					p.N, p.lgLinks(), p.Msgs, p.Seed),
				"config", "max load", "mean load", "max/mean", "p50 lat", "p99 lat",
				"queue depth", "mean hops", "failed frac")
			scenarios := []loadScenario{
				{"ring healthy", 1, 0},
				{"ring 30% failed", 1, 0.3},
				{"torus healthy", 2, 0},
				{"torus 30% failed", 2, 0.3},
			}
			for i, sc := range scenarios {
				g, err := buildLoadGraph(sc, p, p.Seed+uint64(i))
				if err != nil {
					return nil, err
				}
				gen, err := workloadFor(p, "zipf")
				if err != nil {
					return nil, err
				}
				cfg, err := loadConfig(p)
				if err != nil {
					return nil, err
				}
				r, err := load.Run(g, gen, cfg, p.Seed+uint64(1000+i))
				if err != nil {
					return nil, err
				}
				t.AddValues(fmt.Sprintf("%s, %s", sc.label, r.Workload),
					r.MaxLoad, r.MeanLoad, r.MaxMeanRatio(), r.LatencyP50, r.LatencyP99,
					r.MaxQueueDepth, r.Search.MeanHops(), r.Search.FailedFraction())
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:       "ext.load.workloads",
		Artifact: "traffic extension: workload generator sweep (uniform / zipf / sources / flood)",
		Description: "all four traffic patterns on one healthy ring: how far each skew pushes " +
			"the hottest node, the deepest queue, and the latency tail",
		Run: func(p Params) (*sim.Table, error) {
			p = p.withDefaults(1<<12, 1, 1000)
			t := sim.NewTable(
				fmt.Sprintf("Workload sweep (ring n=%d, l=%d, msgs=%d, seed=%d)",
					p.N, p.lgLinks(), p.Msgs, p.Seed),
				"workload", "max load", "mean load", "max/mean", "idle nodes",
				"p99 lat", "queue depth", "mean hops")
			g, err := buildLoadGraph(loadScenario{dim: 1}, p, p.Seed)
			if err != nil {
				return nil, err
			}
			skew := p.Skew
			if skew == 0 {
				skew = 1.0
			}
			for i, gen := range []load.Generator{
				load.Uniform(), load.Zipf(skew), load.SkewedSources(skew), load.Flood(),
			} {
				cfg, err := loadConfig(p)
				if err != nil {
					return nil, err
				}
				r, err := load.Run(g, gen, cfg, p.Seed+uint64(2000+i))
				if err != nil {
					return nil, err
				}
				t.AddValues(r.Workload,
					r.MaxLoad, r.MeanLoad, r.MaxMeanRatio(), r.IdleNodes,
					r.LatencyP99, r.MaxQueueDepth, r.Search.MeanHops())
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:       "ext.load.policy",
		Artifact: "traffic extension: hop-optimal greedy vs congestion-penalized (load-aware) routing",
		Description: "the same Zipf traffic routed twice per network — plain greedy and greedy " +
			"with congestion-penalized detours — on ring and torus, healthy and 30% " +
			"failed: the load-aware policy should cut max load at a bounded mean-hop cost",
		Headline: &Headline{
			File:    "BENCH_load.json",
			Summary: "traffic headline: greedy vs load-aware on the healthy ring",
			Fields:  loadPolicyFields,
			Measure: measureLoadPolicy,
		},
	})
}

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
	Field{Name: "max_queue_depth_greedy", Unit: "msgs", Gate: PositiveInt},
)

func measureLoadPolicy(p Params) (*sim.Table, Values, error) {
	p = p.withDefaults(1<<12, 1, 1000)
	penalty := p.Penalty
	if penalty == 0 {
		penalty = 1
	}
	t := sim.NewTable(
		fmt.Sprintf("Greedy vs load-aware routing (n≈%d, l=%d, msgs=%d, penalty=%g, seed=%d)",
			p.N, p.lgLinks(), p.Msgs, penalty, p.Seed),
		"config", "policy", "max load", "max/mean", "p99 lat", "mean hops", "failed frac")
	scenarios := []loadScenario{
		{"ring healthy", 1, 0},
		{"ring 30% failed", 1, 0.3},
		{"torus healthy", 2, 0},
		{"torus 30% failed", 2, 0.3},
	}
	v := scenarioValues(p, p.Msgs)
	for i, sc := range scenarios {
		g, err := buildLoadGraph(sc, p, p.Seed+uint64(i))
		if err != nil {
			return nil, nil, err
		}
		for _, policy := range []string{"greedy", "load-aware"} {
			gen, err := workloadFor(p, "zipf")
			if err != nil {
				return nil, nil, err
			}
			cfg, err := loadConfig(p)
			if err != nil {
				return nil, nil, err
			}
			suffix := "_greedy"
			if policy == "load-aware" {
				cfg.Penalty = penalty
				suffix = "_aware"
			}
			r, err := load.Run(g, gen, cfg, p.Seed+uint64(3000+i))
			if err != nil {
				return nil, nil, err
			}
			t.AddValues(sc.label, policy,
				r.MaxLoad, r.MaxMeanRatio(), r.LatencyP99,
				r.Search.MeanHops(), r.Search.FailedFraction())
			if i > 0 {
				continue // the headline is the healthy ring
			}
			v["workload"] = r.Workload
			v["max_load"+suffix] = r.MaxLoad
			v["max_mean_ratio"+suffix] = r.MaxMeanRatio()
			v["p99_latency"+suffix] = r.LatencyP99
			v["mean_hops"+suffix] = r.Search.MeanHops()
			if policy == "greedy" {
				v["max_queue_depth_greedy"] = r.MaxQueueDepth
			}
		}
	}
	return t, v, nil
}
