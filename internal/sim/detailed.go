package sim

import (
	"errors"
	"math"
	"sync"

	"repro/internal/rng"
)

// RunDetailed is the trial fan-out: it runs fn for trials 0..trials−1
// on workers goroutines and keeps each trial's statistics, so callers
// can attach confidence intervals to experiment tables. Trial i's
// stats land at index i regardless of the worker count; once a trial
// fails no further trial starts, and the first error is returned.
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

	var (
		mu       sync.Mutex
		firstErr error
	)
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				stats, err := fn(i, root.Derive(uint64(i)))
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				out[i] = stats
			}
		}()
	}
	for i := 0; i < trials; i++ {
		mu.Lock()
		stop := firstErr != nil
		mu.Unlock()
		if stop {
			break
		}
		next <- i
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
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
		ss += d * d
	}
	std := math.Sqrt(ss / float64(n-1))
	return Interval{Mean: mean, StdErr: std / math.Sqrt(float64(n)), Trials: n}
}
