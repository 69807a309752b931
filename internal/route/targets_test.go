package route

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/metric"
	"repro/internal/rng"
)

// TestRouteAnySingleTargetMatchesRoute: RouteAny with a one-element set
// must be byte-identical to Route — the all-replicas-dead fallback
// contract rests on this equivalence.
func TestRouteAnySingleTargetMatchesRoute(t *testing.T) {
	g := buildRing(t, 256, 4, 11)
	for _, policy := range []DeadEndPolicy{Terminate, RandomReroute, Backtrack} {
		r := New(g, Options{DeadEnd: policy, TracePath: true})
		src := rng.New(5)
		for i := 0; i < 100; i++ {
			from := metric.Point(src.Intn(256))
			to := metric.Point(src.Intn(256))
			single, err := r.Route(rng.New(uint64(i)), from, to)
			if err != nil {
				t.Fatal(err)
			}
			set, err := r.RouteAny(rng.New(uint64(i)), from, []metric.Point{to})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(single, set) {
				t.Fatalf("%s: Route=%+v RouteAny=%+v", policy, single, set)
			}
		}
	}
}

// TestRouteAnyDeliversToNearestReplica: on a healthy ring the walk ends
// at a member of the target set, and plain greedy reaches the member
// nearest the source.
func TestRouteAnyDeliversToNearestReplica(t *testing.T) {
	g := buildRing(t, 512, 4, 12)
	r := New(g, Options{TracePath: true})
	targets := []metric.Point{64, 192, 320, 448}
	src := rng.New(6)
	for i := 0; i < 200; i++ {
		from := metric.Point(src.Intn(512))
		res, err := r.RouteAny(rng.New(uint64(i)), from, targets)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Delivered {
			t.Fatalf("from %d: not delivered: %+v", from, res)
		}
		if !slices.Contains(targets, res.Target) {
			t.Fatalf("from %d: delivered to non-target %d", from, res.Target)
		}
		if res.Path[len(res.Path)-1] != res.Target {
			t.Fatalf("from %d: path end %d != target %d", from, res.Path[len(res.Path)-1], res.Target)
		}
		// The initial set distance bounds the hop count: every forward
		// move makes strict set-distance progress.
		if d := refSetDistance(g.Space(), from, targets); res.Hops > d {
			t.Errorf("from %d: %d hops exceed the initial set distance %d", from, res.Hops, d)
		}
	}
}

// TestRouteAnyTieBreakDeterminism: greedy minimizes the distance to the
// nearest replica, so every permutation of the same replicas produces
// the identical result — including which replica wins a distance tie.
func TestRouteAnyTieBreakDeterminism(t *testing.T) {
	g := buildRing(t, 128, 3, 13)
	r := New(g, Options{TracePath: true})
	// From 0, replicas 32 and 96 are exactly equidistant.
	perms := [][]metric.Point{
		{32, 96},
		{96, 32},
		{96, 32, 96, 32}, // duplicates must not change anything either
	}
	var want Result
	for i, targets := range perms {
		res, err := r.RouteAny(rng.New(1), 0, targets)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = res
			if !res.Delivered {
				t.Fatalf("tie route not delivered: %+v", res)
			}
			continue
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("permutation %v diverged: got %+v want %+v", targets, res, want)
		}
	}
}

// TestRouteAnyDeadReplicasFallBack: dead members are dropped from the
// set; with every extra replica dead the search equals plain greedy to
// the primary, and an entirely dead set errors.
func TestRouteAnyDeadReplicasFallBack(t *testing.T) {
	g := buildRing(t, 256, 4, 14)
	r := New(g, Options{DeadEnd: Backtrack, TracePath: true})
	primary, extras := metric.Point(40), []metric.Point{104, 168, 232}
	for _, e := range extras {
		g.Fail(e)
	}
	all := append([]metric.Point{primary}, extras...)
	set, err := r.RouteAny(rng.New(2), 200, all)
	if err != nil {
		t.Fatal(err)
	}
	single, err := r.Route(rng.New(2), 200, primary)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(set, single) {
		t.Errorf("dead-replica fallback diverged:\n set    %+v\n single %+v", set, single)
	}
	g.Fail(primary)
	if _, err := r.RouteAny(rng.New(2), 200, all); err == nil {
		t.Error("an entirely dead target set should error")
	}
	if _, err := r.RouteAny(rng.New(2), 200, nil); err == nil {
		t.Error("an empty target set should error")
	}
}

// TestRouteAnyOneSidedRejectsSets: one-sided greedy is defined against
// a single destination; multiple live replicas must be rejected while a
// single-member set still works.
func TestRouteAnyOneSidedRejectsSets(t *testing.T) {
	g := buildRing(t, 128, 3, 16)
	r := New(g, Options{Sidedness: OneSided})
	if _, err := r.RouteAny(rng.New(1), 0, []metric.Point{10, 60}); err == nil {
		t.Error("one-sided multi-target should error")
	}
	if _, err := r.RouteAny(rng.New(1), 0, []metric.Point{10}); err != nil {
		t.Errorf("one-sided single target errored: %v", err)
	}
}

// TestRouteAnyCongestionKeepsProgress: the congestion-penalized
// multi-target walk still makes strict set-distance progress on every
// forward hop (Terminate policy: the whole path is forward moves).
func TestRouteAnyCongestionKeepsProgress(t *testing.T) {
	g := buildRing(t, 256, 4, 17)
	targets := []metric.Point{0, 128}
	r := New(g, Options{
		TracePath:  true,
		Congestion: func(q metric.Point) float64 { return float64(q % 7) },
	})
	src := rng.New(9)
	for i := 0; i < 100; i++ {
		from := metric.Point(src.Intn(256))
		res, err := r.RouteAny(rng.New(uint64(i)), from, targets)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Delivered {
			t.Fatalf("from %d: not delivered", from)
		}
		prev := refSetDistance(g.Space(), res.Path[0], targets)
		for _, p := range res.Path[1:] {
			d := refSetDistance(g.Space(), p, targets)
			if d >= prev {
				t.Fatalf("from %d: set distance %d -> %d did not strictly decrease (path %v)",
					from, prev, d, res.Path)
			}
			prev = d
		}
	}
}

// refSetDistance is the multi-target objective by its definition, the
// minimum of Space.Distance over the set.
func refSetDistance(s metric.Space, p metric.Point, targets []metric.Point) int {
	best := math.MaxInt
	for _, t := range targets {
		best = min(best, s.Distance(p, t))
	}
	return best
}
