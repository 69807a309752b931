package route

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
)

// BenchmarkWalkerStep times one forwarding decision on the graph the
// live workloads of ftrmark run: a 128×128 torus with ℓ = 14, whose
// link tables (~12 MB) outgrow L2, so what a step costs is set by how
// many distinct cache lines its candidate scan touches. (A bare ring
// with two neighbours per node — BenchmarkProcessOneLive — cannot see
// that.) Walkers are created with the timer stopped; one op is one
// Step. "backtrack" is the policy every live run uses, traced as the
// engine traces it: its only allocations are the walks that outgrow
// their 16-point path. "replicas=12" is backtrack toward a fresh random
// 12-member set per walker, each carved by Router.Walker, so no two
// share a distance table: every candidate is scored against 12
// members. "replicas=12/shared" is knee_sweep's shape — one hot key's
// K = 4 replicas plus 8 cached copies, every walker carved from one
// Arena toward that one set — so all but the first Size/256 score with
// one load from the set's shared distance table. "backtrack/rows" is
// "backtrack" on the same graph once its neighbour rows are built, as
// every engine run builds them: each step reads its candidates from one
// cached row instead of gathering them.
func BenchmarkWalkerStep(b *testing.B) {
	const side, links = 128, 14
	tor, err := metric.NewTorus(side, 2)
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.BuildIdeal(tor, graph.PaperConfigFor(tor, links), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name     string
		opt      Options
		replicas int
		shared   bool
		rows     bool
	}{
		{"greedy", Options{}, 1, false, false},
		{"backtrack", Options{DeadEnd: Backtrack, TracePath: true}, 1, false, false},
		{"replicas=12", Options{DeadEnd: Backtrack, TracePath: true}, 12, false, false},
		{"replicas=12/shared", Options{DeadEnd: Backtrack, TracePath: true}, 12, true, false},
		{"backtrack/rows", Options{DeadEnd: Backtrack, TracePath: true}, 1, false, true},
	} {
		// The cases without rows run first, on a graph that has none.
		if bc.rows {
			g.RefreshRows()
		}
		b.Run(bc.name, func(b *testing.B) {
			r := New(g, bc.opt)
			src := rng.New(2)
			walkers := make([]*Walker, 4096)
			targets := make([]metric.Point, bc.replicas)
			b.ReportAllocs()
			b.ResetTimer()
			for steps := 0; steps < b.N; {
				b.StopTimer()
				carve := r.Walker
				if bc.shared {
					carve = r.NewArena().Walker
					for k := range targets {
						targets[k] = metric.Point(src.Intn(g.Size()))
					}
				}
				for i := range walkers {
					from := metric.Point(src.Intn(g.Size()))
					for k := 0; k < len(targets) && !bc.shared; k++ {
						targets[k] = metric.Point(src.Intn(g.Size()))
					}
					if walkers[i], err = carve(src, from, targets); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				for _, w := range walkers {
					for more := true; more && steps < b.N; steps++ {
						more = w.Step()
					}
				}
			}
		})
	}
}

// TestStepAllocs pins the step at zero allocations under the plain
// greedy policy and under Backtrack (the policy every engine workload
// and Figure 6's third strategy run), toward one target and toward a
// 12-member replica set, on nodes whose degree fits bestNeighbor's
// stack buffer and on nodes that overflow it: a walker
// allocates its spill slice at the first such node and every later step
// reuses it. Each case runs on the gather and again on the graph's
// neighbour rows, which no step needs a buffer for. The measured steps
// run far past BacktrackMemory, so the Backtrack rows evict a frame and
// append a tried entry on every one, and past the 16-entry tried share
// several times over, so they reclaim too.
func TestStepAllocs(t *testing.T) {
	// Every node links to the next `reach` points, so it has 2 short,
	// reach out- and reach in-neighbours.
	build := func(n, reach int) *graph.Graph {
		g := graph.New(mustRing(t, n))
		for p := 0; p < n; p++ {
			for d := 2; d < 2+reach; d++ {
				if err := g.AddLong(metric.Point(p), metric.Point((p+d)%n)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return g
	}
	for _, reach := range []int{8, scratchNeighbors} {
		const n = 1 << 14
		g := build(n, reach)
		overflows := len(g.AppendNeighbors(nil, 0, true)) > scratchNeighbors
		if overflows != (reach == scratchNeighbors) {
			t.Fatalf("reach %d: overflows the %d-entry buffer = %v", reach, scratchNeighbors, overflows)
		}
		// The replica set straddles 0's antipode, the single target, so
		// its nearest member is nearly as far from 0.
		replicas := make([]metric.Point, 12)
		for k := range replicas {
			replicas[k] = metric.Point(n/2 + 100*(k-6))
		}
		for _, rows := range []bool{false, true} {
			if rows {
				g.RefreshRows()
			}
			for _, targets := range [][]metric.Point{{n / 2}, replicas} {
				for _, policy := range []DeadEndPolicy{Terminate, Backtrack} {
					w, err := New(g, Options{DeadEnd: policy}).Walker(rng.New(1), 0, targets)
					if err != nil {
						t.Fatal(err)
					}
					const runs = 50 // far fewer than the n/2/(reach+1) steps the walk takes
					if avg := testing.AllocsPerRun(runs, func() { w.Step() }); avg != 0 {
						t.Errorf("reach %d, rows %v, %s, %d targets: Step allocates %.2f times per call, want 0",
							reach, rows, policy, len(targets), avg)
					}
					if w.Done() {
						t.Errorf("reach %d, rows %v, %s, %d targets: the walk ended inside the measured steps",
							reach, rows, policy, len(targets))
					}
				}
			}
		}
	}
}
