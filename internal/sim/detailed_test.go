package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/route"
)

func TestRunDetailedPreservesOrder(t *testing.T) {
	stats, err := RunDetailed(1, 8, 3, func(trial int, src *rng.Source) (SearchStats, error) {
		var s SearchStats
		s.Record(route.Result{Delivered: true, Hops: trial})
		return s, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 8 {
		t.Fatalf("len = %d", len(stats))
	}
	for i, s := range stats {
		if s.HopsOK != i {
			t.Errorf("trial %d landed at index with hops %d", i, s.HopsOK)
		}
	}
}

func TestRunDetailedMatchesRun(t *testing.T) {
	fn := func(trial int, src *rng.Source) (SearchStats, error) {
		var s SearchStats
		for i := 0; i < 10; i++ {
			s.Record(route.Result{Delivered: src.Bool(0.7), Hops: src.Intn(20)})
		}
		return s, nil
	}
	agg, err := Run(5, 12, 4, fn)
	if err != nil {
		t.Fatal(err)
	}
	detailed, err := RunDetailed(5, 12, 4, fn)
	if err != nil {
		t.Fatal(err)
	}
	var folded SearchStats
	for _, s := range detailed {
		folded.Merge(s)
	}
	if folded != agg {
		t.Errorf("detailed fold %+v != aggregate %+v", folded, agg)
	}
}

func TestRunDetailedErrors(t *testing.T) {
	if _, err := RunDetailed(1, 0, 1, nil); err == nil {
		t.Error("zero trials should error")
	}
	sentinel := errors.New("boom")
	if _, err := RunDetailed(1, 10, 2, func(trial int, src *rng.Source) (SearchStats, error) {
		return SearchStats{}, sentinel
	}); !errors.Is(err, sentinel) {
		t.Errorf("err = %v", err)
	}
}

// A panicking trial fails the run with an error naming it; on a bare
// worker goroutine the panic would kill the process.
func TestRunDetailedRecoversPanickingTrial(t *testing.T) {
	for _, workers := range []int{1, 3} {
		_, err := RunDetailed(1, 5, workers, func(trial int, src *rng.Source) (SearchStats, error) {
			if trial == 2 {
				panic("corrupt network")
			}
			return SearchStats{Searches: 1}, nil
		})
		if err == nil || !strings.Contains(err.Error(), "trial 2 panicked: corrupt network") {
			t.Errorf("workers=%d: err = %v, want trial 2's panic", workers, err)
		}
	}
}

func TestFailedFractionInterval(t *testing.T) {
	mk := func(searches, delivered int) SearchStats {
		return SearchStats{Searches: searches, Delivered: delivered}
	}
	iv := FailedFractionInterval([]SearchStats{mk(10, 5), mk(10, 7), mk(10, 9)})
	// fractions: 0.5, 0.3, 0.1 — mean 0.3.
	if math.Abs(iv.Mean-0.3) > 1e-12 {
		t.Errorf("mean = %v", iv.Mean)
	}
	if iv.Trials != 3 || iv.StdErr <= 0 {
		t.Errorf("interval = %+v", iv)
	}
	// Empty trials are skipped.
	iv = FailedFractionInterval([]SearchStats{{}, mk(10, 10)})
	if iv.Trials != 1 || iv.Mean != 0 || iv.StdErr != 0 {
		t.Errorf("single-trial interval = %+v", iv)
	}
	if iv := FailedFractionInterval(nil); iv.Trials != 0 {
		t.Error("empty input should yield zero interval")
	}
}

// Shrinking standard error with more trials — the reason the harness
// exposes intervals at all.
func TestIntervalShrinksWithTrials(t *testing.T) {
	fn := func(trial int, src *rng.Source) (SearchStats, error) {
		var s SearchStats
		for i := 0; i < 50; i++ {
			s.Record(route.Result{Delivered: src.Bool(0.5)})
		}
		return s, nil
	}
	few, err := RunDetailed(9, 4, 2, fn)
	if err != nil {
		t.Fatal(err)
	}
	many, err := RunDetailed(9, 64, 2, fn)
	if err != nil {
		t.Fatal(err)
	}
	ivFew := FailedFractionInterval(few)
	ivMany := FailedFractionInterval(many)
	if ivMany.StdErr >= ivFew.StdErr {
		t.Errorf("stderr should shrink: %v (4 trials) vs %v (64 trials)",
			ivFew.StdErr, ivMany.StdErr)
	}
}
