// Package replica implements hot-key replication for the overlay: each
// lookup key resolves to a small set of replica points, and searches
// route to the nearest live member (route.RouteAny). Replication is the
// only lever that moves the capacity knee of a single-target flood —
// the knee is pinned by the victim node's in-neighbourhood, which no
// routing policy can widen, but k replicas multiply the service
// capacity behind the hot key by fanning its traffic across k
// neighbourhoods.
//
// Three placement strategies are provided, all seeded, deterministic,
// and dimension-generic over metric.Space:
//
//   - hash-spread: replica i of a key lands at a pseudo-random point
//     keyed by (seed, key, i) — the classic DHT multi-hash placement.
//   - antipodal: replica i is offset from the key by ⌊i·side/k⌋ grid
//     steps along every axis, spreading copies maximally apart along
//     the torus body diagonal (for k = 2 this is the exact antipode).
//   - cache-on-path: popularity-triggered dynamic copies — once a key
//     has been observed CacheThreshold times, cached copies are placed
//     at its hottest observed forwarders (the victim's in-neighbours
//     doing the heavy lifting), which is where NDN-style forwarding
//     strategies put their content stores.
//
// A Placement is not safe for concurrent use; the traffic engine
// consults and mutates it only from sequential code — batch boundaries
// in snapshot mode, injection and delivery events in live mode (whose
// sharded loop falls back to sequential when caching is on) — which is
// what keeps replica-aware runs worker- and shard-count independent.
package replica

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/metric"
	"repro/internal/rng"
)

// Options configures a Placement. The zero value disables replication
// entirely (Enabled reports false).
type Options struct {
	// K is the number of replicas per key, the primary included; 0 and
	// 1 both mean no static replication (a cache-only placement is
	// still possible via CacheThreshold).
	K int
	// Strategy names the static placement: "hash" (the default) or
	// "antipodal".
	Strategy string
	// CacheThreshold, when positive, enables popularity-triggered
	// cache-on-path: a key observed this many times gains cached
	// copies at its hottest forwarders.
	CacheThreshold int
	// CacheCopies caps the cached copies per hot key; 0 defaults to 2.
	CacheCopies int
}

// Enabled reports whether the options ask for any replication at all.
func (o Options) Enabled() bool { return o.K > 1 || o.CacheThreshold > 0 }

// Validate rejects nonsensical configurations.
func (o Options) Validate() error {
	if o.K < 0 {
		return fmt.Errorf("replica: negative replica count %d", o.K)
	}
	switch o.Strategy {
	case "", "hash", "antipodal":
	default:
		return fmt.Errorf("replica: unknown strategy %q (hash, antipodal)", o.Strategy)
	}
	if o.CacheThreshold < 0 || o.CacheCopies < 0 {
		return fmt.Errorf("replica: cache threshold %d and copies %d must be non-negative",
			o.CacheThreshold, o.CacheCopies)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.Strategy == "" {
		o.Strategy = "hash"
	}
	if o.CacheCopies == 0 {
		o.CacheCopies = 2
	}
	return o
}

// Placement resolves lookup keys to replica sets over one metric space.
// Static replicas (hash-spread / antipodal) are pure functions of
// (seed, key); cache-on-path copies accumulate through Observe. Not
// safe for concurrent use.
type Placement struct {
	space   metric.Space
	opt     Options
	seed    uint64
	side    int   // per-axis extent, derived from Size and Dim
	factors []int // antipodal sublattice counts per axis

	statics map[metric.Point][]metric.Point       // memoized static replica sets
	hits    map[metric.Point]int                  // observed lookups per key
	preds   map[metric.Point]map[metric.Point]int // forwarder counts per key
	cached  map[metric.Point][]metric.Point       // promoted cache nodes per key
	sets    map[metric.Point][]metric.Point       // memoized Targets of keys with cached copies

	// promotions counts the cached copies placed over the placement's
	// life, for observers (telemetry polls it and reports deltas). It
	// never feeds back into placement decisions.
	promotions int
}

// NewPlacement returns a Placement over space. The seed drives the
// hash-spread; equal (space, opt, seed) resolve identical replica sets.
func NewPlacement(space metric.Space, opt Options, seed uint64) (*Placement, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	// side = Size^(1/Dim): exact for tori (side^dim points) and the
	// 1-D spaces (side = n); it sizes the antipodal per-axis offsets.
	side := int(math.Round(math.Pow(float64(space.Size()), 1/float64(space.Dim()))))
	if side < 1 {
		side = 1
	}
	p := &Placement{
		space:   space,
		opt:     opt,
		seed:    seed,
		side:    side,
		statics: map[metric.Point][]metric.Point{},
		hits:    map[metric.Point]int{},
		preds:   map[metric.Point]map[metric.Point]int{},
		cached:  map[metric.Point][]metric.Point{},
		sets:    map[metric.Point][]metric.Point{},
	}
	if opt.K > 1 {
		p.factors = axisFactors(opt.K, space.Dim())
	}
	return p, nil
}

// Name identifies the placement in tables and result labels.
func (p *Placement) Name() string {
	s := fmt.Sprintf("%s(k=%d)", p.opt.Strategy, p.opt.K)
	if p.opt.CacheThreshold > 0 {
		s += fmt.Sprintf("+cache(t=%d,c=%d)", p.opt.CacheThreshold, p.opt.CacheCopies)
	}
	return s
}

// Targets returns the replica set of key, primary first: the static
// replicas of the configured strategy followed by any cached copies the
// key has earned. Members may be dead or duplicated — the router
// drops both, degrading to plain greedy toward the
// primary when every extra replica is gone. The returned slice may be
// shared across calls; callers must not mutate it. The combined set of
// a key with cached copies is memoized once they are promoted, so a hot
// key's lookups resolve without allocating.
func (p *Placement) Targets(key metric.Point) []metric.Point {
	cached := p.cached[key]
	if len(cached) == 0 {
		return p.staticSet(key)
	}
	if s, ok := p.sets[key]; ok {
		return s
	}
	static := p.staticSet(key)
	s := append(append(make([]metric.Point, 0, len(static)+len(cached)), static...), cached...)
	p.sets[key] = s
	return s
}

// staticSet memoizes the strategy's replica set per key: static
// replicas are a pure function of (seed, key), and the traffic
// pipeline resolves every message's set once per batch, so the
// hash-spread rng chain would otherwise be rebuilt for the same keys
// hundreds of thousands of times across a sweep.
func (p *Placement) staticSet(key metric.Point) []metric.Point {
	if s, ok := p.statics[key]; ok {
		return s
	}
	s := make([]metric.Point, 0, p.opt.K)
	s = append(s, key)
	for i := 1; i < p.opt.K; i++ {
		s = append(s, p.static(key, i))
	}
	p.statics[key] = s
	return s
}

// static places the i-th (i >= 1) static replica of key.
func (p *Placement) static(key metric.Point, i int) metric.Point {
	if p.opt.Strategy == "antipodal" {
		return p.antipodal(key, i)
	}
	return p.hashSpread(key, i)
}

// hashSpread lands replica i at a pseudo-random point keyed by
// (seed, key, i), resampling a bounded number of times when the draw
// collides with the key itself.
func (p *Placement) hashSpread(key metric.Point, i int) metric.Point {
	src := rng.New(p.seed).Derive(uint64(key)).Derive(uint64(i))
	for try := 0; try < 8; try++ {
		if q := metric.Point(src.Intn(p.space.Size())); q != key {
			return q
		}
	}
	return key // a 1-point space; nothing better exists
}

// antipodal places replica i on an even sublattice around the key: k
// is factored into per-axis counts (axisFactors) and replica i lands at
// the key offset by digit_a·side/f_a along each axis a, its mixed-radix
// decomposition. On a ring this is the evenly-spaced i·n/k spread; on a
// 2-D torus k = 4 forms the 2×2 quadrant lattice whose greedy
// watersheds each capture exactly a quarter of the sources — the
// balance that determines the flood-knee lift. k = 2 special-cases to
// the true antipode (side/2 along every axis), the maximally distant
// point under wrapped L1. On a bounded space (line) an offset that
// would cross the boundary reverses direction.
func (p *Placement) antipodal(key metric.Point, i int) metric.Point {
	if p.opt.K == 2 {
		return p.offsetAll(key, p.side/2)
	}
	q := key
	rem := i
	for axis, f := range p.factors {
		if f <= 1 {
			continue
		}
		digit := rem % f
		rem /= f
		if digit == 0 {
			continue
		}
		q = p.offsetAxis(q, axis+1, digit*p.side/f)
	}
	return q
}

// offsetAxis moves delta grid steps along one axis, reversing direction
// at a boundary (lines only; rings and tori always wrap).
func (p *Placement) offsetAxis(q metric.Point, axis, delta int) metric.Point {
	if next, ok := p.space.Offset(q, axis, delta); ok {
		return next
	}
	if next, ok := p.space.Offset(q, axis, -delta); ok {
		return next
	}
	return q
}

// offsetAll moves delta grid steps along every axis.
func (p *Placement) offsetAll(q metric.Point, delta int) metric.Point {
	for axis := 1; axis <= p.space.Dim(); axis++ {
		q = p.offsetAxis(q, axis, delta)
	}
	return q
}

// axisFactors splits k replicas across dim axes as evenly as possible:
// factor a gets ⌈rem^(1/axes-left)⌉ sublattice positions. The product
// covers k, so every replica index decomposes into a distinct cell.
func axisFactors(k, dim int) []int {
	factors := make([]int, dim)
	rem := k
	for a := 0; a < dim; a++ {
		left := dim - a
		f := int(math.Ceil(math.Pow(float64(rem), 1/float64(left)) - 1e-9))
		if f < 1 {
			f = 1
		}
		factors[a] = f
		rem = (rem + f - 1) / f
	}
	return factors
}

// Observe feeds one delivered search back into the placement: the
// logical key looked up and the visited path (destination last). It
// drives the popularity counters of cache-on-path; once a key crosses
// CacheThreshold observations, its CacheCopies hottest forwarders are
// promoted to cached copies (ties break toward the lower point id, so
// promotion is deterministic). A placement without a cache threshold
// ignores observations.
func (p *Placement) Observe(key metric.Point, path []metric.Point) {
	if p.opt.CacheThreshold <= 0 {
		return
	}
	p.hits[key]++
	if len(path) >= 2 {
		pred := path[len(path)-2]
		if pred != key {
			byNode := p.preds[key]
			if byNode == nil {
				byNode = map[metric.Point]int{}
				p.preds[key] = byNode
			}
			byNode[pred]++
		}
	}
	if p.hits[key] == p.opt.CacheThreshold {
		p.promote(key)
	}
}

// promote elects the key's cached copies from its observed forwarders.
func (p *Placement) promote(key metric.Point) {
	byNode := p.preds[key]
	if len(byNode) == 0 {
		return
	}
	type cand struct {
		at    metric.Point
		count int
	}
	cands := make([]cand, 0, len(byNode))
	for at, c := range byNode {
		cands = append(cands, cand{at, c})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].count != cands[j].count {
			return cands[i].count > cands[j].count
		}
		return cands[i].at < cands[j].at
	})
	n := p.opt.CacheCopies
	if n > len(cands) {
		n = len(cands)
	}
	// Skip candidates already serving as static replicas of this key.
	static := p.Targets(key)
	out := make([]metric.Point, 0, n)
	for _, c := range cands {
		if len(out) == n {
			break
		}
		skip := false
		for _, t := range static {
			if t == c.at {
				skip = true
				break
			}
		}
		if !skip {
			out = append(out, c.at)
		}
	}
	p.cached[key] = out
	p.promotions += len(out)
}

// Caching reports whether popularity-triggered cache-on-path is
// enabled — the condition under which Observe does anything.
func (p *Placement) Caching() bool { return p.opt.CacheThreshold > 0 }

// CachedKeys returns how many keys have earned cached copies, and
// CachedCopies the total copies placed — the cache headline numbers.
func (p *Placement) CachedKeys() int { return len(p.cached) }

// CachedCopies returns the total number of cache placements made.
func (p *Placement) CachedCopies() int {
	total := 0
	for _, c := range p.cached {
		total += len(c)
	}
	return total
}

// CachedFor returns the cached copies of key (nil when none).
func (p *Placement) CachedFor(key metric.Point) []metric.Point { return p.cached[key] }

// CachePromotions returns how many cached copies were ever placed.
// Observers (the telemetry recorder) poll it at engine events and
// attribute the deltas to virtual time.
func (p *Placement) CachePromotions() int { return p.promotions }
