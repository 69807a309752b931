package graph

import (
	"fmt"
	"testing"

	"repro/internal/metric"
	"repro/internal/rng"
)

// refNearest is the stamped BFS the engine's churn layer carried as
// churnState.nearestAlive before Graph.NearestAlive replaced it, kept
// as the oracle (with the admission test as a parameter, so the present
// and the alive query share it): breadth-first over unit grid steps in
// every dimension, −axis before +axis, axes ascending; the first
// admissible point reached wins.
func refNearest(g *Graph, target metric.Point, admit func(metric.Point) bool) (metric.Point, bool) {
	if admit(target) {
		return target, true
	}
	visited := make([]bool, g.Size())
	visited[target] = true
	bfs := []metric.Point{target}
	for head := 0; head < len(bfs); head++ {
		p := bfs[head]
		if admit(p) {
			return p, true
		}
		for axis := 1; axis <= g.Space().Dim(); axis++ {
			for _, dir := range [2]int{-axis, +axis} {
				if q, ok := g.Space().Step(p, dir); ok && !visited[q] {
					visited[q] = true
					bfs = append(bfs, q)
				}
			}
		}
	}
	return 0, false
}

// refSkip is the engine's old nearestAliveDir, likewise parameterised:
// walk from p along dir to the first admissible point, stopping at a
// line boundary or after a full lap.
func refSkip(g *Graph, p metric.Point, dir int, admit func(metric.Point) bool) (metric.Point, bool) {
	cur := p
	for i := 0; i < g.Size(); i++ {
		next, ok := g.Space().Step(cur, dir)
		if !ok {
			return 0, false
		}
		cur = next
		if cur == p {
			return 0, false
		}
		if admit(cur) {
			return cur, true
		}
	}
	return 0, false
}

// bruteNearest scans every point for the admissible one at minimum
// distance from target. In one dimension it applies the documented tie
// rule — of two candidates at equal distance, the one on the lower
// (−1) side — so the result is the exact answer; in higher dimensions
// ties follow BFS discovery order, which only refNearest restates, so
// just the distance is returned for comparison.
func bruteNearest(g *Graph, target metric.Point, admit func(metric.Point) bool) (best metric.Point, dist int, ok bool) {
	if admit(target) {
		return target, 0, true
	}
	sp := g.Space()
	for i := 0; i < g.Size(); i++ {
		q := metric.Point(i)
		if !admit(q) {
			continue
		}
		d := sp.Distance(q, target)
		lower := false
		if sp.Dim() == 1 && ok && d == dist {
			below, inRange := sp.Offset(target, -1, d)
			lower = inRange && below == q
		}
		if !ok || d < dist || lower {
			best, dist, ok = q, d, true
		}
	}
	return best, dist, ok
}

// checkNearestQueries compares both nearest-node searches and both
// skip-walks at target with their references.
func checkNearestQueries(g *Graph, target metric.Point) error {
	sp := g.Space()
	for _, q := range []struct {
		name    string
		nearest func(metric.Point) (metric.Point, bool)
		skip    func(metric.Point, int) (metric.Point, bool)
		admit   func(metric.Point) bool
	}{
		{"existing", g.NearestExisting, g.ShortNeighbor, g.Exists},
		{"alive", g.NearestAlive, g.AliveNeighbor, g.Alive},
	} {
		got, ok := q.nearest(target)
		want, wantOK := refNearest(g, target, q.admit)
		if got != want || ok != wantOK {
			return fmt.Errorf("nearest %s to %d = (%d, %v), reference BFS (%d, %v)", q.name, target, got, ok, want, wantOK)
		}
		brute, dist, bruteOK := bruteNearest(g, target, q.admit)
		switch {
		case ok != bruteOK:
			return fmt.Errorf("nearest %s to %d: ok = %v, brute force %v", q.name, target, ok, bruteOK)
		case ok && !q.admit(got):
			return fmt.Errorf("nearest %s to %d = %d, which is not %s", q.name, target, got, q.name)
		case ok && sp.Distance(got, target) != dist:
			return fmt.Errorf("nearest %s to %d = %d at distance %d, brute force finds %d", q.name, target, got, sp.Distance(got, target), dist)
		case ok && sp.Dim() == 1 && got != brute:
			return fmt.Errorf("nearest %s to %d = %d, brute force with the lower-side tie rule %d", q.name, target, got, brute)
		}
		for axis := 1; axis <= sp.Dim(); axis++ {
			for _, dir := range [2]int{-axis, +axis} {
				got, ok := q.skip(target, dir)
				want, wantOK := refSkip(g, target, dir, q.admit)
				if got != want || ok != wantOK {
					return fmt.Errorf("%s neighbour of %d along %+d = (%d, %v), reference walk (%d, %v)", q.name, target, dir, got, ok, want, wantOK)
				}
			}
		}
	}
	return nil
}

// TestNearestAliveMatchesReference holds the merged searches to the
// copies they replaced and to a brute-force scan, on the three
// geometries at every damage level the engine meets — none, moderate,
// heavy, a sole survivor, total — plus a graph with absent points under
// the failed ones, where the two flag masks disagree.
func TestNearestAliveMatchesReference(t *testing.T) {
	targets := 10000
	if testing.Short() {
		targets = 1000
	}
	ring := mustRing(t, 1024)
	line := mustLine(t, 257)
	torus, err := metric.NewTorus(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range []metric.Space{ring, line, torus} {
		n := sp.Size()
		for _, damage := range []struct {
			name           string
			absent, failed float64
			survivors      int // when >= 0: fail everything but this many nodes
		}{
			{"healthy", 0, 0, -1},
			{"30% failed", 0, 0.3, -1},
			{"90% failed", 0, 0.9, -1},
			{"20% absent, 30% failed", 0.2, 0.3, -1},
			{"sole survivor", 0, 0, 1},
			{"all dead", 0, 0, 0},
		} {
			src := rng.New(uint64(n) + uint64(100*damage.failed) + uint64(damage.survivors+1))
			present := make([]bool, n)
			for i := range present {
				present[i] = !src.Bool(damage.absent)
			}
			g, err := NewWithPresence(sp, present)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if src.Bool(damage.failed) {
					g.Fail(metric.Point(i))
				}
			}
			if damage.survivors >= 0 {
				keep := metric.Point(src.Intn(n))
				for i := 0; i < n; i++ {
					if p := metric.Point(i); damage.survivors == 0 || p != keep {
						g.Fail(p)
					}
				}
				if g.AliveCount() != damage.survivors {
					t.Fatalf("%s, %s: %d alive, want %d", sp.Name(), damage.name, g.AliveCount(), damage.survivors)
				}
			}
			for i := 0; i < targets; i++ {
				if err := checkNearestQueries(g, metric.Point(src.Intn(n))); err != nil {
					t.Fatalf("%s, %s: %v", sp.Name(), damage.name, err)
				}
			}
			for _, p := range []metric.Point{-1, metric.Point(n)} {
				if _, ok := g.NearestAlive(p); ok {
					t.Errorf("%s: NearestAlive(%d) found a node outside the space", sp.Name(), p)
				}
			}
		}
	}
}

// The d >= 2 search runs off the graph's reusable mark/queue scratch:
// once one call has sized it, a search allocates nothing — the engine's
// link repair calls it once per redrawn link.
func TestNearestAliveWarmAllocs(t *testing.T) {
	torus, err := metric.NewTorus(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := New(torus)
	for i := 0; i < g.Size(); i++ {
		if i%16 < 12 { // twelve dead columns: every search crosses several levels
			g.Fail(metric.Point(i))
		}
	}
	target := metric.Point(5)
	if q, ok := g.NearestAlive(target); !ok || torus.Distance(q, target) != 6 {
		t.Fatalf("NearestAlive(%d) = (%d, %v), want a node 6 columns away", target, q, ok)
	}
	if avg := testing.AllocsPerRun(50, func() { g.NearestAlive(target) }); avg != 0 {
		t.Errorf("warm NearestAlive allocates %.2f per call, want 0", avg)
	}
}
