package sim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/route"
)

func TestSearchStatsRecordAndMerge(t *testing.T) {
	var s SearchStats
	s.Record(route.Result{Delivered: true, Hops: 5, Reroutes: 1})
	s.Record(route.Result{Delivered: false, Hops: 3, Backtracks: 2})
	if s.Searches != 2 || s.Delivered != 1 || s.HopsOK != 5 || s.HopsFail != 3 {
		t.Errorf("stats = %+v", s)
	}
	if s.Reroutes != 1 || s.Backtracks != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.FailedFraction() != 0.5 {
		t.Errorf("failed fraction = %v", s.FailedFraction())
	}
	if s.MeanHops() != 5 {
		t.Errorf("mean hops = %v", s.MeanHops())
	}
	var other SearchStats
	other.Record(route.Result{Delivered: true, Hops: 7})
	s.Merge(other)
	if s.Searches != 3 || s.Delivered != 2 || s.HopsOK != 12 {
		t.Errorf("after merge = %+v", s)
	}
}

func TestSearchStatsZeroValues(t *testing.T) {
	var s SearchStats
	if s.FailedFraction() != 0 || s.MeanHops() != 0 {
		t.Error("zero stats should report zeros")
	}
}

func TestRunAggregates(t *testing.T) {
	stats, err := Run(1, 10, 4, func(trial int, src *rng.Source) (SearchStats, error) {
		var s SearchStats
		s.Record(route.Result{Delivered: true, Hops: trial})
		return s, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Searches != 10 || stats.Delivered != 10 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.HopsOK != 45 { // 0+1+...+9
		t.Errorf("hops = %d, want 45", stats.HopsOK)
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	fn := func(trial int, src *rng.Source) (SearchStats, error) {
		var s SearchStats
		s.Record(route.Result{Delivered: src.Bool(0.5), Hops: src.Intn(100)})
		return s, nil
	}
	a, err := Run(7, 50, 1, fn)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(7, 50, 8, fn)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("worker count changed results: %+v vs %+v", a, b)
	}
}

// TestRunPropagatesError: with trials 3 and 7 failing, the error is
// trial 3's at every worker count, whichever trial a worker finished
// first.
func TestRunPropagatesError(t *testing.T) {
	low, high := errors.New("trial 3"), errors.New("trial 7")
	for _, workers := range []int{1, 4, 8} {
		_, err := Run(1, 100, workers, func(trial int, src *rng.Source) (SearchStats, error) {
			switch trial {
			case 3:
				return SearchStats{}, low
			case 7:
				return SearchStats{}, high
			}
			return SearchStats{}, nil
		})
		if err != low {
			t.Errorf("workers=%d: err = %v, want trial 3's", workers, err)
		}
	}
}

func TestRunValidatesTrials(t *testing.T) {
	if _, err := Run(1, 0, 1, nil); err == nil {
		t.Error("zero trials should error")
	}
}

func TestMeasureSearches(t *testing.T) {
	sp, err := metric.NewRing(256)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.BuildIdeal(sp, graph.PaperConfig(8), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	r := route.New(g, route.Options{})
	stats, err := MeasureSearches(g, r, rng.New(3), 100)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Searches != 100 || stats.Delivered != 100 {
		t.Errorf("failure-free network should deliver all: %+v", stats)
	}
	if stats.MeanHops() <= 0 {
		t.Error("mean hops should be positive")
	}
}

func TestMeasureSearchesNeedsTwoNodes(t *testing.T) {
	sp, err := metric.NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(sp)
	g.Fail(1)
	g.Fail(2)
	g.Fail(3)
	r := route.New(g, route.Options{})
	if _, err := MeasureSearches(g, r, rng.New(1), 10); err == nil {
		t.Error("single live node should error")
	}
}

func TestTableText(t *testing.T) {
	tb := NewTable("demo", "a", "b")
	tb.Add("1", "2")
	tb.AddValues(3.14159, 42)
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Errorf("missing title: %q", out)
	}
	if !strings.Contains(out, "3.142") {
		t.Errorf("float formatting wrong: %q", out)
	}
	if !strings.Contains(out, "42") {
		t.Errorf("int formatting wrong: %q", out)
	}
}

func TestTableShortRowPadding(t *testing.T) {
	tb := NewTable("", "x", "y", "z")
	tb.Add("only")
	if len(tb.Rows[0]) != 3 {
		t.Errorf("row = %v", tb.Rows[0])
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "col,1", "col2")
	tb.Add(`va"l`, "plain")
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `"col,1"`) {
		t.Errorf("comma header not quoted: %q", out)
	}
	if !strings.Contains(out, `"va""l"`) {
		t.Errorf("quote not escaped: %q", out)
	}
	if !strings.HasSuffix(out, "plain\n") {
		t.Errorf("csv = %q", out)
	}
}

func TestFFormats(t *testing.T) {
	if F(3) != "3" || F("x") != "x" || F(2.0) != "2" || F(float32(1.5)) != "1.5" {
		t.Error("F formatting broken")
	}
	if F(true) != "true" {
		t.Error("default formatting broken")
	}
}
