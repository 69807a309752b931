package sim

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// RunDetailed is the trial fan-out: it runs fn for trials 0..trials−1
// on workers goroutines and keeps each trial's statistics, so callers
// can attach confidence intervals to experiment tables. Trial i's
// stats land at index i regardless of the worker count; once a trial
// fails (returns an error or panics) no further trial starts, and the
// error returned is the lowest-index failing trial's. Trials are
// dispatched in index order, so that trial always runs, and the error
// is a function of the seed, not of which worker finished first.
func RunDetailed(seed uint64, trials, workers int, fn TrialFunc) ([]SearchStats, error) {
	if trials <= 0 {
		return nil, errors.New("sim: trials must be positive")
	}
	if workers <= 0 {
		workers = 1
	}
	if workers > trials {
		workers = trials
	}
	root := rng.New(seed)
	out := make([]SearchStats, trials)
	errs := make([]error, trials)

	var failed atomic.Bool
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = guarded(fn, i, root.Derive(uint64(i)))
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	for i := 0; i < trials && !failed.Load(); i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// guarded runs trial i with a panic turned into that trial's error, so
// one bad trial fails the run instead of killing the process from a
// bare worker goroutine.
func guarded(fn TrialFunc, i int, src *rng.Source) (stats SearchStats, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("sim: trial %d panicked: %v", i, p)
		}
	}()
	return fn(i, src)
}

// Interval is a mean with a standard error over trials.
type Interval struct {
	Mean   float64
	StdErr float64
	Trials int
}

// FailedFractionInterval aggregates per-trial failed fractions into a
// mean ± stderr interval; trials that ran no search are skipped.
func FailedFractionInterval(trials []SearchStats) Interval {
	values := make([]float64, 0, len(trials))
	for _, s := range trials {
		if s.Searches > 0 {
			values = append(values, s.FailedFraction())
		}
	}
	n := len(values)
	if n == 0 {
		return Interval{}
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	mean := sum / float64(n)
	if n == 1 {
		return Interval{Mean: mean, Trials: 1}
	}
	var ss float64
	for _, v := range values {
		d := v - mean
		ss += float64(d * d)
	}
	std := math.Sqrt(ss / float64(n-1))
	return Interval{Mean: mean, StdErr: std / math.Sqrt(float64(n)), Trials: n}
}
