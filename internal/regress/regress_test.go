// Package regress pins the exact seeded behaviour of the 1-D pipeline:
// graph construction (ideal, presence-masked, heuristic, deterministic),
// failure injection, and every routing policy. The golden values below
// were captured from the seed implementation; any refactor of the
// metric/graph/route/failure/construct layers must reproduce them
// bit-for-bit, proving the dimension-generic Space path is
// behaviour-preserving for d=1.
package regress

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/construct"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/sim"
)

// fingerprint folds every long link (owner, target, up) of g, in point
// order, into an FNV-1a hash — a strong structural identity for the
// built overlay.
func fingerprint(g *graph.Graph) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 0, 64)
	for i := 0; i < g.Size(); i++ {
		p := metric.Point(i)
		for _, lk := range g.Long(p) {
			up := byte(0)
			if lk.Up {
				up = 1
			}
			buf = append(buf[:0],
				byte(i), byte(i>>8), byte(i>>16),
				byte(lk.To), byte(lk.To>>8), byte(lk.To>>16),
				up)
			h.Write(buf)
		}
	}
	return h.Sum64()
}

func statLine(label string, s sim.SearchStats) string {
	return fmt.Sprintf("%s: searches=%d delivered=%d hopsOK=%d hopsFail=%d reroutes=%d backtracks=%d",
		label, s.Searches, s.Delivered, s.HopsOK, s.HopsFail, s.Reroutes, s.Backtracks)
}

// run1DScenarios executes the full seeded scenario suite and returns one
// line per observation.
func run1DScenarios(t *testing.T) []string {
	t.Helper()
	var out []string
	add := func(format string, args ...interface{}) {
		out = append(out, fmt.Sprintf(format, args...))
	}

	measure := func(label string, g *graph.Graph, opt route.Options, seed uint64, msgs int) {
		r := route.New(g, opt)
		stats, err := sim.MeasureSearches(g, r, rng.New(seed), msgs)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		out = append(out, statLine(label, stats))
	}

	// --- Ideal ring, mass node failure, all three dead-end policies.
	ring, err := metric.NewRing(4096)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.BuildIdeal(ring, graph.PaperConfig(12), rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	add("ideal-ring: links=%d fp=%#x", g.LongLinkCount(), fingerprint(g))
	if _, err := failure.FailNodesFraction(g, 0.3, rng.New(43)); err != nil {
		t.Fatal(err)
	}
	add("ideal-ring: alive=%d", g.AliveCount())
	measure("ideal-ring/terminate", g, route.Options{DeadEnd: route.Terminate}, 44, 300)
	measure("ideal-ring/reroute", g, route.Options{DeadEnd: route.RandomReroute, MaxReroutes: 3}, 44, 300)
	measure("ideal-ring/backtrack", g, route.Options{DeadEnd: route.Backtrack}, 44, 300)
	measure("ideal-ring/one-sided", g, route.Options{Sidedness: route.OneSided, DeadEnd: route.Backtrack}, 45, 300)
	measure("ideal-ring/directed", g, route.Options{DirectedOnly: true, DeadEnd: route.Backtrack}, 46, 300)

	// --- Ideal line (boundary handling), healthy, both sidedness modes.
	line, err := metric.NewLine(2048)
	if err != nil {
		t.Fatal(err)
	}
	gl, err := graph.BuildIdeal(line, graph.PaperConfig(11), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	add("ideal-line: links=%d fp=%#x", gl.LongLinkCount(), fingerprint(gl))
	measure("ideal-line/two-sided", gl, route.Options{}, 8, 300)
	measure("ideal-line/one-sided", gl, route.Options{Sidedness: route.OneSided}, 9, 300)

	// --- Non-harmonic exponent (table sampler path).
	ge, err := graph.BuildIdeal(ring, graph.BuildConfig{Links: 6, Exponent: 1.5}, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	add("ideal-exp1.5: links=%d fp=%#x", ge.LongLinkCount(), fingerprint(ge))
	gu, err := graph.BuildIdeal(ring, graph.BuildConfig{Links: 6, Exponent: 0}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	add("ideal-uniform: links=%d fp=%#x", gu.LongLinkCount(), fingerprint(gu))

	// --- Binomial presence (basin-of-attraction redirect path).
	mask, err := failure.BinomialPresence(4096, 0.7, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	gp, err := graph.BuildIdealWithPresence(ring, graph.PaperConfig(12), mask, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	add("presence-ring: alive=%d links=%d fp=%#x", gp.AliveCount(), gp.LongLinkCount(), fingerprint(gp))
	measure("presence-ring/terminate", gp, route.Options{}, 14, 300)

	// --- Heuristic §5 construction (arrival protocol + NearestExisting).
	small, err := metric.NewRing(1024)
	if err != nil {
		t.Fatal(err)
	}
	gh, err := construct.Grow(small, construct.Config{Links: 8}, rng.New(15))
	if err != nil {
		t.Fatal(err)
	}
	add("heuristic-ring: links=%d fp=%#x", gh.LongLinkCount(), fingerprint(gh))
	measure("heuristic-ring/backtrack", gh, route.Options{DeadEnd: route.Backtrack}, 16, 300)

	// --- Heuristic churn: departures regenerate links.
	b, err := construct.NewBuilder(small, construct.Config{Links: 6, Strategy: construct.Oldest}, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range rng.New(18).Perm(1024) {
		if err := b.Add(metric.Point(i)); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < 1024; p += 3 {
		if err := b.Remove(metric.Point(p)); err != nil {
			t.Fatal(err)
		}
	}
	add("heuristic-churn: alive=%d links=%d fp=%#x", b.Graph().AliveCount(), b.Graph().LongLinkCount(), fingerprint(b.Graph()))

	// --- Deterministic overlays + link failures (Theorems 14–16).
	gd, err := graph.BuildDeterministic(ring, 2)
	if err != nil {
		t.Fatal(err)
	}
	add("det-b2-ring: links=%d fp=%#x", gd.LongLinkCount(), fingerprint(gd))
	gdp, err := graph.BuildDeterministicPowers(line, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := failure.FailLinks(gdp, 0.8, rng.New(20)); err != nil {
		t.Fatal(err)
	}
	add("detpow-b3-line: links=%d fp=%#x", gdp.LongLinkCount(), fingerprint(gdp))
	measure("detpow-b3-line/terminate", gdp, route.Options{}, 21, 300)

	// --- Link-length histogram of the ideal build (Figure 5's measurement).
	h := g.LinkLengthHistogram()
	var moment int64
	for d := 0; d < 64; d++ {
		moment += h.Count(d)
	}
	add("ideal-ring: histTotal=%d histHead=%d", h.Total(), moment)

	return out
}

// golden1D holds the values captured from the seed implementation
// (commit 293e9f2) before the dimension-generic refactor.
var golden1D = []string{
	"ideal-ring: links=49152 fp=0x8b873249fa6beb58",
	"ideal-ring: alive=2868",
	"ideal-ring/terminate: searches=300 delivered=263 hopsOK=1438 hopsFail=167 reroutes=0 backtracks=0",
	"ideal-ring/reroute: searches=300 delivered=295 hopsOK=1816 hopsFail=121 reroutes=55 backtracks=0",
	"ideal-ring/backtrack: searches=300 delivered=298 hopsOK=1899 hopsFail=25 reroutes=0 backtracks=119",
	"ideal-ring/one-sided: searches=300 delivered=277 hopsOK=2198 hopsFail=769 reroutes=0 backtracks=419",
	"ideal-ring/directed: searches=300 delivered=285 hopsOK=2642 hopsFail=427 reroutes=0 backtracks=370",
	"ideal-line: links=22528 fp=0x84ccfb93f56c7432",
	"ideal-line/two-sided: searches=300 delivered=300 hopsOK=1391 hopsFail=0 reroutes=0 backtracks=0",
	"ideal-line/one-sided: searches=300 delivered=300 hopsOK=1694 hopsFail=0 reroutes=0 backtracks=0",
	"ideal-exp1.5: links=24576 fp=0x83325ff2452ae644",
	"ideal-uniform: links=24576 fp=0xad0e1e186399455b",
	"presence-ring: alive=2835 links=34020 fp=0x2717e1c4258eaab3",
	"presence-ring/terminate: searches=300 delivered=300 hopsOK=1355 hopsFail=0 reroutes=0 backtracks=0",
	"heuristic-ring: links=8192 fp=0xbf36ad177e098e9e",
	"heuristic-ring/backtrack: searches=300 delivered=300 hopsOK=1352 hopsFail=0 reroutes=0 backtracks=0",
	"heuristic-churn: alive=682 links=4092 fp=0xec61404892ea8657",
	"det-b2-ring: links=98304 fp=0x4be983c0c35861c5",
	"detpow-b3-line: links=26486 fp=0x9479ee6e51eb6d90",
	"detpow-b3-line/terminate: searches=300 delivered=300 hopsOK=1545 hopsFail=0 reroutes=0 backtracks=0",
	"ideal-ring: histTotal=49152 histHead=28226",
}

func TestSeededPipelineGolden(t *testing.T) {
	got := run1DScenarios(t)
	if len(golden1D) == 0 {
		for _, line := range got {
			t.Logf("golden: %q,", line)
		}
		t.Fatal("golden1D is empty; paste the logged lines above")
	}
	if len(got) != len(golden1D) {
		t.Fatalf("scenario count changed: got %d, want %d", len(got), len(golden1D))
	}
	for i := range got {
		if got[i] != golden1D[i] {
			t.Errorf("scenario %d diverged:\n  got  %s\n  want %s", i, got[i], golden1D[i])
		}
	}
}
