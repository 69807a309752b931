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
// their 16-point path.
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
		name string
		opt  Options
	}{
		{"greedy", Options{}},
		{"backtrack", Options{DeadEnd: Backtrack, TracePath: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := New(g, bc.opt)
			src := rng.New(2)
			walkers := make([]*Walker, 4096)
			b.ReportAllocs()
			b.ResetTimer()
			for steps := 0; steps < b.N; {
				b.StopTimer()
				for i := range walkers {
					from, to := metric.Point(src.Intn(g.Size())), metric.Point(src.Intn(g.Size()))
					if walkers[i], err = r.Walker(src, from, []metric.Point{to}); err != nil {
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
// and Figure 6's third strategy run), on nodes whose degree fits
// bestNeighbor's stack buffer and on nodes that overflow it: a walker
// allocates its spill slice at the first such node and every later step
// reuses it. The measured steps run far past BacktrackMemory, so the
// Backtrack rows evict a frame and append a tried entry on every one,
// and past the 16-entry tried share several times over, so they
// reclaim too.
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
		for _, policy := range []DeadEndPolicy{Terminate, Backtrack} {
			w, err := New(g, Options{DeadEnd: policy}).Walker(rng.New(1), 0, []metric.Point{n / 2})
			if err != nil {
				t.Fatal(err)
			}
			const runs = 50 // far fewer than the n/2/(reach+1) steps the walk takes
			if avg := testing.AllocsPerRun(runs, func() { w.Step() }); avg != 0 {
				t.Errorf("reach %d, %s: Step allocates %.2f times per call, want 0", reach, policy, avg)
			}
			if w.Done() {
				t.Errorf("reach %d, %s: the walk ended inside the measured steps", reach, policy)
			}
		}
	}
}
