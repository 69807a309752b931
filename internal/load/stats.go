package load

import (
	"sort"

	"repro/internal/mathx"
)

// latencySummary returns the mean and the nearest-rank p50/p95/p99 of
// the given latencies, which it sorts in place (Run owns its outcome's
// slice and keeps no other view of it). The mean sums in sorted order.
// All zeros on empty input (nothing delivered).
func latencySummary(latencies []float64) (mean, p50, p95, p99 float64) {
	if len(latencies) == 0 {
		return 0, 0, 0, 0
	}
	sort.Float64s(latencies)
	var total float64
	for _, v := range latencies {
		total += v
	}
	return total / float64(len(latencies)),
		mathx.NearestRank(latencies, 0.50),
		mathx.NearestRank(latencies, 0.95),
		mathx.NearestRank(latencies, 0.99)
}

// LoadHistogram buckets the per-node service counts into a power-of-two
// histogram over the loaded nodes. Nil when nothing was loaded.
func (r *Result) LoadHistogram() *mathx.Histogram {
	if r.MaxLoad == 0 {
		return nil
	}
	h := mathx.NewLogHistogram(r.MaxLoad)
	for _, l := range r.Loads {
		if l > 0 {
			h.Add(l)
		}
	}
	return h
}

// MaxServed returns the largest per-point delivery count — how
// concentrated the consumption side of the traffic is. Replicating a
// hot key splits its deliveries across replicas, so MaxServed drops
// while total deliveries stay put.
func (r *Result) MaxServed() int {
	max := 0
	for _, c := range r.ServedBy {
		if c > max {
			max = c
		}
	}
	return max
}

// ServingPoints returns how many points consumed at least one delivered
// message — under a flood, the number of replicas actually absorbing
// the hot key's traffic.
func (r *Result) ServingPoints() int {
	n := 0
	for _, c := range r.ServedBy {
		if c > 0 {
			n++
		}
	}
	return n
}
