package sim

import (
	"testing"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/route"
)

// fig6Network is one Figure 6 cell: a ring of 2¹¹ nodes with ℓ = 11
// long links each and 30 % of the nodes crashed.
func fig6Network(tb testing.TB) *graph.Graph {
	tb.Helper()
	ring, err := metric.NewRing(1 << 11)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := graph.BuildIdeal(ring, graph.PaperConfig(11), rng.New(1))
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := failure.FailNodesFraction(g, 0.3, rng.New(2)); err != nil {
		tb.Fatal(err)
	}
	return g
}

var deadEnds = []route.DeadEndPolicy{route.Terminate, route.RandomReroute, route.Backtrack}

// TestMeasureSearchesAllocs pins what a §6 measurement costs the heap:
// its searches share one arena's recycled walker, so a call of 1000
// searches allocates exactly once under Terminate and RandomReroute (the
// arena, which holds its first walker and free-stack slot) and 2 times
// under Backtrack (and the one slab of the walker's tried stack and
// history; 3 while they were two), where a walker per search allocated
// 1000 and 3001 times. Any allocation the arena adds per call fails it.
func TestMeasureSearchesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	g := fig6Network(t)
	for _, policy := range deadEnds {
		r := route.New(g, route.Options{DeadEnd: policy})
		src := rng.New(3)
		want := 1.0
		if policy == route.Backtrack {
			want = 2
		}
		if avg := testing.AllocsPerRun(5, func() {
			if _, err := MeasureSearches(g, r, src, 1000); err != nil {
				t.Fatal(err)
			}
		}); avg != want {
			t.Errorf("%s: 1000 searches allocate %.1f times, want %.0f", policy, avg, want)
		}
	}
}

// BenchmarkMeasureSearches times the inner loop of every §6 table on a
// Figure 6 cell under each dead-end policy; one op is one search
// between random live endpoints.
func BenchmarkMeasureSearches(b *testing.B) {
	g := fig6Network(b)
	for _, policy := range deadEnds {
		b.Run(policy.String(), func(b *testing.B) {
			r := route.New(g, route.Options{DeadEnd: policy})
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := MeasureSearches(g, r, rng.New(3), b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}
