package graph

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/metric"
	"repro/internal/rng"
)

// int32s converts a gather to the row's element type.
func int32s(ps []metric.Point) []int32 {
	out := make([]int32, len(ps))
	for i, p := range ps {
		out[i] = int32(p)
	}
	return out
}

// checkRows is the rows' contract after a mutation: a row Row serves
// as cached equals the gather — a stale row is never served — and
// after RefreshRows every point's row is served from the cache, equal
// to AppendNeighbors(p, true), its prefix to AppendNeighbors(p, false),
// except the rows a refresh found too long for their storage: those
// stay stale until the next build, counted, and at most a sixteenth of
// the rows.
func checkRows(g *Graph) error {
	for _, refreshed := range []bool{false, true} {
		if refreshed {
			g.RefreshRows()
		}
		uncached := 0
		for i := 0; i < g.Size(); i++ {
			p := metric.Point(i)
			for _, in := range []bool{false, true} {
				want := int32s(g.AppendNeighbors(nil, p, in))
				row, cached := g.Row(nil, p, in)
				if !slices.Equal(row, want) {
					return fmt.Errorf("point %d (in=%v, cached=%v, refreshed=%v): row %v, gather %v",
						p, in, cached, refreshed, row, want)
				}
				if in && !cached {
					uncached++
				}
			}
		}
		if refreshed && (uncached != g.rows.unfit || len(g.rows.stale) != 0 || g.rows.unfit > len(g.rows.spans)/16) {
			return fmt.Errorf("after RefreshRows: %d rows uncached, %d counted too long, %d listed stale, of %d",
				uncached, g.rows.unfit, len(g.rows.stale), len(g.rows.spans))
		}
	}
	return nil
}

// staleSet returns the points marked stale since the last refresh, in
// order, after checking that the list and the flags agree.
func staleSet(t *testing.T, g *Graph) []metric.Point {
	t.Helper()
	var flagged []metric.Point
	for i := range g.flags {
		if g.flags[i]&flagStale != 0 {
			flagged = append(flagged, metric.Point(i))
		}
	}
	var listed []metric.Point
	for _, p := range g.rows.stale {
		listed = append(listed, metric.Point(p))
	}
	slices.Sort(listed)
	if !slices.Equal(flagged, listed) {
		t.Fatalf("stale flags on %v, stale list %v", flagged, listed)
	}
	return listed
}

// Each link mutator marks stale exactly the rows it changes: its own
// node's and the link's old and new target's, the ones whose in-links
// moved.
func TestRowsMarkExactlyTheChangedPoints(t *testing.T) {
	g, err := BuildIdeal(mustRing(t, 64), PaperConfig(3), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	g.RefreshRows()
	if got := staleSet(t, g); len(got) != 0 {
		t.Fatalf("fresh rows: %v stale", got)
	}
	const p = 10
	old := g.Long(p)[0].To
	to := (old + 20) % 64
	if to == p {
		to++
	}
	sorted := func(ps ...metric.Point) []metric.Point { slices.Sort(ps); return ps }
	steps := []struct {
		name   string
		mutate func() error
		want   []metric.Point
	}{
		{"ReplaceLong of an up link", func() error { return g.ReplaceLong(p, 0, to) }, sorted(p, old, to)},
		{"SetLongUp down", func() error { return g.SetLongUp(p, 0, false) }, sorted(p, to)},
		{"SetLongUp to the state it has", func() error { return g.SetLongUp(p, 0, false) }, nil},
		{"ReplaceLong of a down link", func() error { return g.ReplaceLong(p, 0, old) }, sorted(p, old)},
		{"SetLongUp down, another slot", func() error { return g.SetLongUp(p, 1, false) }, sorted(p, g.Long(p)[1].To)},
		{"SetLongUp up", func() error { return g.SetLongUp(p, 1, true) }, sorted(p, g.Long(p)[1].To)},
		{"AddLong", func() error { return g.AddLong(p, 40) }, sorted(p, 40)},
	}
	for _, s := range steps {
		if err := s.mutate(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if got := staleSet(t, g); !slices.Equal(got, s.want) {
			t.Errorf("%s marked %v stale, want %v", s.name, got, s.want)
		}
		if err := checkRows(g); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
	}
}

// The mutators that move short links or rebuild the reverse index drop
// the rows wholesale; the next refresh builds them again.
func TestRowsDroppedByWholesaleMutators(t *testing.T) {
	for _, mutate := range []func(g *Graph) error{
		func(g *Graph) error { g.RestoreLinks(); return nil },
		func(g *Graph) error { return g.RemoveNode(5) },
		func(g *Graph) error {
			if err := g.RemoveNode(5); err != nil {
				return err
			}
			g.RefreshRows()
			return g.AddNode(5)
		},
	} {
		g, err := BuildIdeal(mustRing(t, 32), PaperConfig(2), rng.New(4))
		if err != nil {
			t.Fatal(err)
		}
		g.RefreshRows()
		if err := mutate(g); err != nil {
			t.Fatal(err)
		}
		if g.rows.spans != nil {
			t.Error("the rows survived a wholesale mutation")
		}
		if err := checkRows(g); err != nil {
			t.Fatal(err)
		}
	}
}

// A row that outgrows its storage stays stale — read by gather — rather
// than write into the next row's entries, and once such rows are more
// than a sixteenth of them the refresh rebuilds every row.
func TestRowsGrowWithoutTouchingNeighbours(t *testing.T) {
	g, err := BuildIdeal(mustRing(t, 64), PaperConfig(2), rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	g.RefreshRows()
	src := rng.New(7)
	outgrown, rebuilt := false, false
	for round := 0; round < 40; round++ {
		unfit := g.rows.unfit
		// Every round redirects links into one point, growing its row
		// by several entries at once.
		at := metric.Point(src.Intn(64))
		for k := 0; k < 4; k++ {
			from := metric.Point(src.Intn(64))
			if from == at {
				continue
			}
			if err := g.ReplaceLong(from, src.Intn(2), at); err != nil {
				t.Fatal(err)
			}
		}
		if err := checkRows(g); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		outgrown = outgrown || g.rows.unfit > unfit
		rebuilt = rebuilt || g.rows.unfit < unfit
	}
	if !outgrown || !rebuilt {
		t.Errorf("outgrown %v, rebuilt %v: the rounds never exercised both", outgrown, rebuilt)
	}
}

// BenchmarkRefreshRows times building every row of the graph the live
// workloads run — a 128×128 torus with ℓ = 14 — from none, which is
// what the first engine run on a graph pays.
func BenchmarkRefreshRows(b *testing.B) {
	tor, err := metric.NewTorus(128, 2)
	if err != nil {
		b.Fatal(err)
	}
	g, err := BuildIdeal(tor, PaperConfigFor(tor, 14), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.dropRows()
		g.RefreshRows()
	}
}
