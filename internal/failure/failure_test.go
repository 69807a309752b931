package failure

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
)

func ringGraph(t testing.TB, n, links int, seed uint64) *graph.Graph {
	t.Helper()
	sp, err := metric.NewRing(n)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.BuildIdeal(sp, graph.PaperConfig(links), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFailLinksValidation(t *testing.T) {
	g := ringGraph(t, 16, 2, 1)
	if _, err := FailLinks(g, -0.1, rng.New(1)); err == nil {
		t.Error("negative p should error")
	}
	if _, err := FailLinks(g, 1.1, rng.New(1)); err == nil {
		t.Error("p > 1 should error")
	}
}

func TestFailLinksProportion(t *testing.T) {
	const n, links = 512, 8
	g := ringGraph(t, n, links, 2)
	p := 0.7
	down, err := FailLinks(g, p, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	total := n * links
	wantDown := float64(total) * (1 - p)
	if math.Abs(float64(down)-wantDown) > 4*math.Sqrt(wantDown) {
		t.Errorf("down = %d, want ≈ %v", down, wantDown)
	}
	// Verify flags actually changed.
	upCount := 0
	for i := 0; i < n; i++ {
		for _, lk := range g.Long(metric.Point(i)) {
			if lk.Up {
				upCount++
			}
		}
	}
	if upCount != total-down {
		t.Errorf("up count %d inconsistent with down %d of %d", upCount, down, total)
	}
}

func TestFailLinksExtremes(t *testing.T) {
	g := ringGraph(t, 64, 4, 4)
	down, err := FailLinks(g, 1, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if down != 0 {
		t.Errorf("p=1 should keep all links, downed %d", down)
	}
	down, err = FailLinks(g, 0, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if down != 64*4 {
		t.Errorf("p=0 should down all links, downed %d", down)
	}
}

// TestInjectorsCountOnlyWhatTheyTakeDown: a link already down or a
// node already malicious still draws, so the stream advances as on an
// intact graph, but is not counted again; a caller that undoes the
// damage can hold its undo to the count.
func TestInjectorsCountOnlyWhatTheyTakeDown(t *testing.T) {
	intact, damaged := ringGraph(t, 64, 4, 4), ringGraph(t, 64, 4, 4)
	if _, err := FailLinks(damaged, 0, rng.New(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := MarkMalicious(damaged, 1, rng.New(5)); err != nil {
		t.Fatal(err)
	}
	a, b := rng.New(6), rng.New(6)
	for _, inj := range []func(*graph.Graph, *rng.Source) (int, error){
		func(g *graph.Graph, src *rng.Source) (int, error) { return FailLinks(g, 0.5, src) },
		func(g *graph.Graph, src *rng.Source) (int, error) { return MarkMalicious(g, 0.5, src) },
	} {
		if n, err := inj(intact, a); err != nil || n == 0 {
			t.Errorf("intact graph: %d taken down, err %v", n, err)
		}
		if n, err := inj(damaged, b); err != nil || n != 0 {
			t.Errorf("damaged graph: %d taken down again, err %v", n, err)
		}
		if a.Uint64() != b.Uint64() {
			t.Error("the stream advanced differently on the damaged graph")
		}
	}
}

// FailNodesFraction crashes exactly ⌊f·alive⌋ nodes and refuses a
// fraction outside [0, 1].
func TestFailNodesFraction(t *testing.T) {
	g := ringGraph(t, 1000, 2, 6)
	crashed, err := FailNodesFraction(g, 0.3, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if crashed != 300 {
		t.Errorf("crashed = %d, want exactly 300", crashed)
	}
	if g.AliveCount() != 700 {
		t.Errorf("alive = %d, want 700", g.AliveCount())
	}
	// A second call draws from the survivors: 0.5 of 700.
	if crashed, err = FailNodesFraction(g, 0.5, rng.New(8)); err != nil || crashed != 350 || g.AliveCount() != 350 {
		t.Errorf("second call: crashed %d (err %v), %d alive; want 350 and 350", crashed, err, g.AliveCount())
	}
	for _, f := range []float64{-0.1, 2} {
		if _, err := FailNodesFraction(g, f, rng.New(9)); err == nil {
			t.Errorf("fraction %v should error", f)
		}
	}
}

// Fraction 1 crashes every alive node.
func TestFailNodesFractionFull(t *testing.T) {
	g := ringGraph(t, 50, 1, 10)
	crashed, err := FailNodesFraction(g, 1, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if crashed != 50 || g.AliveCount() != 0 {
		t.Errorf("crashed %d, %d alive; want all 50 crashed", crashed, g.AliveCount())
	}
}

func TestFailNodesProb(t *testing.T) {
	g := ringGraph(t, 2000, 1, 12)
	crashed, err := FailNodesProb(g, 0.25, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	want := 0.25 * 2000
	if math.Abs(float64(crashed)-want) > 4*math.Sqrt(want) {
		t.Errorf("crashed = %d, want ≈ %v", crashed, want)
	}
	if _, err := FailNodesProb(g, -1, rng.New(1)); err == nil {
		t.Error("invalid probability should error")
	}
}

func TestBinomialPresence(t *testing.T) {
	src := rng.New(14)
	mask, err := BinomialPresence(5000, 0.6, src)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, m := range mask {
		if m {
			count++
		}
	}
	want := 0.6 * 5000
	if math.Abs(float64(count)-want) > 4*math.Sqrt(want) {
		t.Errorf("present = %d, want ≈ %v", count, want)
	}
}

func TestBinomialPresenceNeverEmpty(t *testing.T) {
	src := rng.New(15)
	for i := 0; i < 50; i++ {
		mask, err := BinomialPresence(10, 0, src)
		if err != nil {
			t.Fatal(err)
		}
		any := false
		for _, m := range mask {
			any = any || m
		}
		if !any {
			t.Fatal("mask must never be empty")
		}
	}
	if _, err := BinomialPresence(0, 0.5, src); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := BinomialPresence(10, 1.5, src); err == nil {
		t.Error("p>1 should error")
	}
}

func TestFailInterval(t *testing.T) {
	g := ringGraph(t, 32, 1, 16)
	crashed := FailInterval(g, 30, 5) // wraps: 30,31,0,1,2
	if crashed != 5 {
		t.Errorf("crashed = %d, want 5", crashed)
	}
	for _, p := range []metric.Point{30, 31, 0, 1, 2} {
		if g.Alive(p) {
			t.Errorf("node %d should be dead", p)
		}
	}
	if !g.Alive(3) || !g.Alive(29) {
		t.Error("interval overshot")
	}
}

func TestFailIntervalProtectAndClip(t *testing.T) {
	sp, err := metric.NewLine(10)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.BuildIdeal(sp, graph.PaperConfig(1), rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	crashed := FailInterval(g, 7, 10, 8) // clipped at line end, 8 protected
	if crashed != 2 {                    // 7 and 9
		t.Errorf("crashed = %d, want 2", crashed)
	}
	if !g.Alive(8) {
		t.Error("protected node crashed")
	}
}
