package engine

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/replica"
	"repro/internal/rng"
)

// traceCase is one engine run that the tracing test repeats under each
// value of Route.TracePath. build returns a fresh run every call: a
// churn run edits its graph, a cache-on-path run its placement.
type traceCase struct {
	name  string
	build func(t *testing.T) (*graph.Graph, []Message, Schedule, Config)
	// vacuous reports why a run exercises nothing of what the case is
	// for, or "" when it does.
	vacuous func(out *Outcome, cfg Config) string
}

// runTrace runs tc at the given owner count with Route.TracePath set to
// trace.
func runTrace(t *testing.T, tc traceCase, shards int, trace bool) *Outcome {
	t.Helper()
	g, msgs, sched, cfg := tc.build(t)
	cfg.Shards = shards
	cfg.Route.TracePath = trace
	out, err := Run(g, msgs, sched, cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if why := tc.vacuous(out, cfg); why != "" {
		t.Fatalf("the run is vacuous: %s", why)
	}
	return out
}

// checkTracedPaths fails unless every walked lookup of out (one hop or
// more) has a path of one point per hop and the origin.
func checkTracedPaths(t *testing.T, out *Outcome) {
	t.Helper()
	walked := 0
	for i, res := range out.Results {
		if res.Hops == 0 {
			continue
		}
		walked++
		if len(res.Path) != res.Hops+1 {
			t.Fatalf("lookup %d: %d hops, path %v", i, res.Hops, res.Path)
		}
	}
	if walked == 0 {
		t.Fatal("no lookup took a hop")
	}
}

// floodMessages sends n lookups from random live nodes to one victim.
func floodMessages(g *graph.Graph, n int, seed uint64) []Message {
	src := rng.New(seed)
	victim, _ := g.RandomAlive(src)
	msgs := make([]Message, n)
	for i := range msgs {
		from, _ := g.RandomAlive(src)
		for from == victim {
			from, _ = g.RandomAlive(src)
		}
		msgs[i] = Message{From: from, Key: victim}
	}
	return msgs
}

// TestUntracedRunMatchesTraced pins what tracing a live run's walkers
// may change. A plain live, aggregate or churn run reads no path, so it
// traces only when the caller sets Route.TracePath: with the flag off
// every Result's Path is nil, and everything else of the Outcome is
// what the traced run gives, at one owner and at two. A PIT run retraces
// each answer leg along its lookup's path, a cache-on-path run observes
// the path of every delivery, and snapshot mode replays its routed
// paths, so each of them traces whatever the flag says, and gives the
// same Outcome, paths included, either way.
func TestUntracedRunMatchesTraced(t *testing.T) {
	never := func(*Outcome, Config) string { return "" }
	plain := []traceCase{
		{"live", func(t *testing.T) (*graph.Graph, []Message, Schedule, Config) {
			g, msgs, sched := liveEngineScenario(t, 1<<11)
			cfg := baseConfig()
			cfg.Mode = ModeLive
			return g, msgs, sched, cfg
		}, never},
		{"aggregate", func(t *testing.T) (*graph.Graph, []Message, Schedule, Config) {
			g := testGraph(t, 512, 9, 11, 0)
			cfg := baseConfig()
			cfg.Mode = ModeLiveAggregate
			return g, floodMessages(g, 600, 12), periodicSchedule(600, 16), cfg
		}, func(out *Outcome, _ Config) string {
			if out.Aggregated == 0 {
				return "nothing coalesced"
			}
			return ""
		}},
		{"churn", func(t *testing.T) (*graph.Graph, []Message, Schedule, Config) {
			g, msgs, sched, cfg := churnPITScenario(t, 1<<11, false)
			cfg.Mode, cfg.PITTimeout, cfg.PITWaiters = ModeLive, 0, 0
			return g, msgs, sched, cfg
		}, func(out *Outcome, _ Config) string {
			if out.Crashes == 0 || out.Stranded == 0 {
				return fmt.Sprintf("%d crashes, %d stranded", out.Crashes, out.Stranded)
			}
			return ""
		}},
	}
	for _, tc := range plain {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				traced := runTrace(t, tc, shards, true)
				untraced := runTrace(t, tc, shards, false)
				checkTracedPaths(t, traced)
				for i := range untraced.Results {
					if p := untraced.Results[i].Path; p != nil {
						t.Fatalf("untraced lookup %d keeps path %v", i, p)
					}
					traced.Results[i].Path = nil
				}
				if !reflect.DeepEqual(traced, untraced) {
					t.Error("the untraced run diverged from the traced run")
				}
			})
		}
	}

	tracing := []traceCase{
		{"pit", func(t *testing.T) (*graph.Graph, []Message, Schedule, Config) {
			return churnPITScenario(t, 1<<11, false)
		}, func(out *Outcome, _ Config) string {
			if out.Suppressed == 0 {
				return "nothing suppressed"
			}
			return ""
		}},
		{"cache-on-path", func(t *testing.T) (*graph.Graph, []Message, Schedule, Config) {
			g := testGraph(t, 1024, 10, 19, 0)
			p, err := replica.NewPlacement(g.Space(), replica.Options{K: 4, CacheThreshold: 16, CacheCopies: 8}, 77)
			if err != nil {
				t.Fatal(err)
			}
			cfg := baseConfig()
			cfg.Mode = ModeLive
			cfg.Placement = p
			return g, floodMessages(g, 400, 20), periodicSchedule(400, 8), cfg
		}, func(_ *Outcome, cfg Config) string {
			if cfg.Placement.CachedCopies() == 0 {
				return "the flooded key earned no cached copies"
			}
			return ""
		}},
		{"snapshot", func(t *testing.T) (*graph.Graph, []Message, Schedule, Config) {
			g := testGraph(t, 512, 9, 3, 5)
			return g, testMessages(t, g, 300, 4), periodicSchedule(300, 2), baseConfig()
		}, never},
	}
	for _, tc := range tracing {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				traced := runTrace(t, tc, shards, true)
				untraced := runTrace(t, tc, shards, false)
				checkTracedPaths(t, untraced)
				if !reflect.DeepEqual(traced, untraced) {
					t.Error("the caller's TracePath changed a run that traces anyway")
				}
			})
		}
	}
}
