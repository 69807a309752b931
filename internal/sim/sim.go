// Package sim is the Monte Carlo experiment harness: it runs repeated
// routing trials over freshly built networks (in parallel across
// deterministic per-trial rng streams), aggregates delivery statistics,
// and renders the text/CSV tables the paper's figures are read from.
package sim

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/route"
)

// SearchStats aggregates the outcomes of a set of searches. The zero
// value is ready to use; merge partial results with Merge.
type SearchStats struct {
	Searches   int
	Delivered  int
	HopsOK     int // total hops over delivered searches
	HopsFail   int // total hops over failed searches
	Reroutes   int
	Backtracks int
}

// Record accumulates one search result.
func (s *SearchStats) Record(res route.Result) {
	s.Searches++
	if res.Delivered {
		s.Delivered++
		s.HopsOK += res.Hops
	} else {
		s.HopsFail += res.Hops
	}
	s.Reroutes += res.Reroutes
	s.Backtracks += res.Backtracks
}

// Merge folds other into s.
func (s *SearchStats) Merge(other SearchStats) {
	s.Searches += other.Searches
	s.Delivered += other.Delivered
	s.HopsOK += other.HopsOK
	s.HopsFail += other.HopsFail
	s.Reroutes += other.Reroutes
	s.Backtracks += other.Backtracks
}

// FailedFraction returns the fraction of searches that failed — the
// y-axis of Figure 6(a) and Figure 7.
func (s SearchStats) FailedFraction() float64 {
	if s.Searches == 0 {
		return 0
	}
	return float64(s.Searches-s.Delivered) / float64(s.Searches)
}

// MeanHops returns the mean delivery time of successful searches — the
// y-axis of Figure 6(b). It returns 0 when nothing was delivered.
func (s SearchStats) MeanHops() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.HopsOK) / float64(s.Delivered)
}

// TrialFunc runs one independent trial (typically: build a network,
// damage it, route some messages) using the provided deterministic rng
// stream, and returns the trial's statistics.
type TrialFunc func(trial int, src *rng.Source) (SearchStats, error)

// Run executes trials Monte Carlo repetitions of fn, fanning them out
// over workers goroutines, and folds RunDetailed's per-trial statistics
// together (integer sums: the order of the fold cannot matter). Trial i
// always receives the rng stream derived as New(seed).Derive(i), so
// results are independent of the worker count and fully reproducible.
// The first trial error aborts the run and is returned.
func Run(seed uint64, trials, workers int, fn TrialFunc) (SearchStats, error) {
	per, err := RunDetailed(seed, trials, workers, fn)
	var total SearchStats
	for _, stats := range per {
		total.Merge(stats)
	}
	return total, err
}

// MeasureSearches routes msgs messages between uniformly random live
// source/destination pairs of g using router r, and returns the
// aggregated statistics. This is the inner loop of every experiment in
// §6 ("we repeatedly choose random source and destination nodes that
// have not failed and route a message between them").
func MeasureSearches(g *graph.Graph, r *route.Router, src *rng.Source, msgs int) (SearchStats, error) {
	var stats SearchStats
	if g.AliveCount() < 2 {
		return stats, errors.New("sim: need at least two live nodes")
	}
	for i := 0; i < msgs; i++ {
		from, ok := g.RandomAlive(src)
		if !ok {
			return stats, errors.New("sim: no live source")
		}
		to, ok := randomAliveOther(g, src, from)
		if !ok {
			return stats, errors.New("sim: no live destination")
		}
		res, err := r.Route(src, from, to)
		if err != nil {
			return stats, fmt.Errorf("sim: search %d: %w", i, err)
		}
		stats.Record(res)
	}
	return stats, nil
}

func randomAliveOther(g *graph.Graph, src *rng.Source, not metric.Point) (metric.Point, bool) {
	for i := 0; i < 64; i++ {
		p, ok := g.RandomAlive(src)
		if !ok {
			return 0, false
		}
		if p != not {
			return p, true
		}
	}
	return 0, false
}
