package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// update regenerates testdata/tiny.golden from the tables the suite
// produces now: go test ./internal/experiments -run TinyScale -update.
var update = flag.Bool("update", false, "rewrite testdata/tiny.golden")

const tinyGolden = "testdata/tiny.golden"

// readTinyGolden parses the "id sha256" lines of the golden file.
func readTinyGolden(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(tinyGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		id, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", tinyGolden, line)
		}
		want[id] = sum
	}
	return want
}

// tiny returns parameters small enough that every experiment finishes
// in well under a second.
func tiny() Params {
	return Params{N: 1 << 9, Trials: 2, Msgs: 20, Seed: 7, Workers: 2}
}

func TestRegistryComplete(t *testing.T) {
	// The paper-artifact ids of the experiment index (`ftrsim -list`;
	// README.md's Architecture table names the families) must stay
	// registered.
	paper := []string{
		"table1.nofail.l1", "table1.nofail.multi", "table1.nofail.detb",
		"table1.linkfail.multi", "table1.linkfail.detb",
		"table1.nodefail.binomial", "table1.nodefail.general",
		"fig5a", "fig5b", "fig6a", "fig6b", "fig6a.d2", "fig6b.d2", "fig7",
		"ablation.replacement", "ablation.backtrack", "ablation.sidedness",
		"ablation.exponent", "baselines", "theory",
		"ext.2d", "ext.byzantine", "ext.physical",
		"ablation.space", "ext.churn", "table1.bounds",
	}
	// The extension catalogue is closed: each id owns a headline or is
	// the evidence README cites for a claim. A new claim goes into the
	// table that already makes it, as extra rows.
	extensions := []string{
		"ext.load.policy", "ext.saturation.policies", "ext.replica.flood",
		"ext.engine.flood", "ext.churn.recovery", // the headline owners
		"ext.pit.flood", "ext.pit.suppression", "ext.saturation.knee", "ext.replica.zipf",
	}
	want := map[string]bool{}
	for _, id := range append(paper, extensions...) {
		want[id] = true
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
		if !want[id] {
			t.Errorf("experiment %q is in neither the paper's ids nor the extension catalogue", id)
		}
	}
	for id := range want {
		if !have[id] {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nope"); err == nil {
		t.Error("unknown id should error")
	}
	if _, err := Run("nope", tiny()); err == nil {
		t.Error("Run of unknown id should error")
	}
}

// TestEveryExperimentRunsAtTinyScale runs the whole registry at the
// tiny scale and holds every table's text rendering to the digest
// recorded in testdata/tiny.golden. Nothing else pins the experiment
// tables byte for byte (internal/regress pins engine and load runs), so
// this is the guard a refactor of this package is reviewed against: a
// changed digest means a changed seed, draw order, row or format.
func TestEveryExperimentRunsAtTinyScale(t *testing.T) {
	var (
		mu  sync.Mutex
		got = map[string]string{}
	)
	var want map[string]string
	if *update {
		// Cleanup runs once every parallel subtest has finished.
		t.Cleanup(func() {
			if t.Failed() {
				return
			}
			var b bytes.Buffer
			for _, id := range IDs() {
				fmt.Fprintf(&b, "%s %s\n", id, got[id])
			}
			if err := os.WriteFile(tinyGolden, b.Bytes(), 0o644); err != nil {
				t.Error(err)
			}
		})
	} else {
		want = readTinyGolden(t)
		if len(want) != len(IDs()) {
			t.Errorf("%s lists %d experiments, the registry has %d", tinyGolden, len(want), len(IDs()))
		}
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			tbl, err := Run(id, tiny())
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if tbl == nil || len(tbl.Rows) == 0 {
				t.Fatalf("%s produced an empty table", id)
			}
			if tbl.Title == "" || len(tbl.Columns) < 2 {
				t.Errorf("%s table missing title/columns", id)
			}
			var text bytes.Buffer
			if err := tbl.WriteText(&text); err != nil {
				t.Fatal(err)
			}
			sum := fmt.Sprintf("%x", sha256.Sum256(text.Bytes()))
			if *update {
				mu.Lock()
				got[id] = sum
				mu.Unlock()
			} else if sum != want[id] {
				t.Errorf("%s: table digest %s, golden %q; the table now reads\n%s", id, sum, want[id], text.String())
			}
		})
	}
}

// TestEveryExperimentIgnoresWorkersAndShards runs the whole registry
// at Workers {1, 8} × Shards {1, 3} on a profile with five trials, and
// holds each table to the same text across the four runs: a trial
// result folded in completion order, or state shared between
// concurrent trials or owners, fails it wherever the difference
// reaches a printed digit. The runs are checked against each other,
// not against a golden. What
// names the execution plan a shard count resolves to — the notes, and
// ext.pit.flood's plan column — is left out.
func TestEveryExperimentIgnoresWorkersAndShards(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the registry four times")
	}
	type profile struct{ workers, shards int }
	profiles := []profile{{1, 1}, {8, 1}, {1, 3}, {8, 3}}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			var first string
			for _, pr := range profiles {
				p := Params{N: 1 << 9, Trials: 5, Msgs: 20, Seed: 7, Workers: pr.workers, Shards: pr.shards}
				tbl, err := Run(id, p)
				if err != nil {
					t.Fatalf("%s at %+v: %v", id, pr, err)
				}
				tbl.Notes = nil
				for c, col := range tbl.Columns {
					if col == "plan" {
						for _, row := range tbl.Rows {
							row[c] = ""
						}
					}
				}
				text := tbl.String()
				if pr == profiles[0] {
					first = text
				} else if text != first {
					t.Errorf("%s at %+v differs from %+v:\n%s\nvs\n%s", id, pr, profiles[0], text, first)
				}
			}
		})
	}
}

func TestExperimentsAreReproducible(t *testing.T) {
	a, err := Run("table1.nofail.multi", tiny())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("table1.nofail.multi", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("same seed produced different tables:\n%s\nvs\n%s", a, b)
	}
}

// TestFig5DistributionIgnoresTrialOrder pins fig5a/fig5b's average
// bit for bit across worker counts: the trials' histograms are summed
// in trial order, not in the order eight concurrent trials happen to
// finish (a float sum's value depends on its order).
func TestFig5DistributionIgnoresTrialOrder(t *testing.T) {
	p := Params{N: 512, Trials: 8, Seed: 5, Workers: 1}
	want, err := derivedDistribution(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Workers = 8
	for rep := 0; rep < 20; rep++ {
		got, err := derivedDistribution(p)
		if err != nil {
			t.Fatal(err)
		}
		for d := range want.probs {
			if math.Float64bits(got.probs[d]) != math.Float64bits(want.probs[d]) {
				t.Fatalf("rep %d: probs[%d] = %v at 8 workers, %v at 1", rep, d, got.probs[d], want.probs[d])
			}
		}
	}
}

func TestFig6a2DRunsDeterministically(t *testing.T) {
	// The §6 node-failure sweep at d=2 must run end-to-end through the
	// generic pipeline and reproduce exactly under a fixed seed.
	p := Params{Dim: 2, Side: 16, Trials: 2, Msgs: 30, Seed: 11}
	a, err := Run("fig6a.d2", p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("fig6a.d2", p)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("same seed produced different 2-D tables:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a.Title, "torus d=2 side=16") {
		t.Errorf("2-D table title must record the space, got %q", a.Title)
	}
	// Healthy torus row: no failed searches.
	first := a.Rows[0]
	if parseF(t, first[1]) != 0 || parseF(t, first[3]) != 0 {
		t.Errorf("no failures should mean no failed searches in 2-D: %v", first)
	}
	// -dim on the plain fig6a id selects the torus too.
	c, err := Run("fig6a", p)
	if err != nil {
		t.Fatal(err)
	}
	if c.String() != a.String() {
		t.Errorf("fig6a -dim 2 and fig6a.d2 must agree:\n%s\nvs\n%s", c, a)
	}
}

func TestFig6aShapeMatchesPaper(t *testing.T) {
	// The qualitative claims of §6 at moderate scale:
	//  - failed fraction grows with p for every strategy;
	//  - backtracking fails least at high p;
	//  - terminate stays below the failed-node fraction p itself.
	p := Params{N: 1 << 11, Trials: 3, Msgs: 100, Seed: 3}
	tbl, err := Run("fig6a", p)
	if err != nil {
		t.Fatal(err)
	}
	type row struct{ p, term, rr, bt float64 }
	rows := make([]row, 0, len(tbl.Rows))
	for _, cells := range tbl.Rows {
		rows = append(rows, row{
			p:    parseF(t, cells[0]),
			term: parseF(t, cells[1]),
			rr:   parseF(t, cells[2]),
			bt:   parseF(t, cells[3]),
		})
	}
	if len(rows) < 5 {
		t.Fatalf("too few rows: %d", len(rows))
	}
	last := rows[len(rows)-1] // p = 0.8
	if last.p != 0.8 {
		t.Fatalf("last row p = %v", last.p)
	}
	if last.bt >= last.term {
		t.Errorf("backtracking (%v) should beat terminate (%v) at p=0.8", last.bt, last.term)
	}
	// The paper's "failed searches < p" claim holds at its scale
	// (ℓ=17); at this test's reduced ℓ the p=0.8 point can exceed p
	// slightly, so assert the claim at moderate p instead.
	for _, r := range rows {
		if r.p > 0 && r.p <= 0.6 && r.term >= r.p {
			t.Errorf("terminate failed frac %v at p=%v should stay below p", r.term, r.p)
		}
	}
	if rows[0].term != 0 || rows[0].bt != 0 {
		t.Errorf("no failures should mean no failed searches: %+v", rows[0])
	}
	// Monotone-ish growth: last > first for terminate.
	if last.term <= rows[1].term {
		t.Errorf("terminate failures should grow with p: %+v vs %+v", rows[1], last)
	}
}

func TestExponentAblationPrefersOne(t *testing.T) {
	p := Params{N: 1 << 11, Trials: 3, Msgs: 100, Seed: 5}
	tbl, err := Run("ablation.exponent", p)
	if err != nil {
		t.Fatal(err)
	}
	hops := map[string]float64{}
	for _, cells := range tbl.Rows {
		hops[cells[0]] = parseF(t, cells[1])
	}
	// Exponent 1 should beat 0 (uniform) and 2 (too local).
	if hops["1"] >= hops["0"] {
		t.Errorf("exponent 1 (%v hops) should beat uniform (%v hops)", hops["1"], hops["0"])
	}
	if hops["1"] >= hops["2"] {
		t.Errorf("exponent 1 (%v hops) should beat exponent 2 (%v hops)", hops["1"], hops["2"])
	}
}

func TestBaselinesTableContainsAllSystems(t *testing.T) {
	p := Params{N: 1 << 10, Trials: 1, Msgs: 50, Seed: 9}
	tbl, err := Run("baselines", p)
	if err != nil {
		t.Fatal(err)
	}
	text := tbl.String()
	for _, name := range []string{"aspnes-shah", "chord", "kleinberg", "can", "flood", "central"} {
		if !strings.Contains(text, name) {
			t.Errorf("baselines table missing %q:\n%s", name, text)
		}
	}
	rows := map[string][]string{}
	for _, row := range tbl.Rows {
		rows[row[0]] = row
	}
	cell := func(name string, col int) float64 {
		row, ok := rows[name]
		if !ok {
			t.Fatalf("baselines lacks row %q:\n%s", name, text)
		}
		return parseF(t, row[col])
	}
	for _, name := range []string{"kleinberg", "can"} {
		if d := cell(name, 3); d != 1 {
			t.Errorf("healthy %s delivered %v, want 1: grid links always make progress", name, d)
		}
	}
	// §3's scaling shape: Chord's O(log n) beats CAN's Θ(√n).
	if chord, can := cell("chord", 1), cell("can", 1); chord >= can {
		t.Errorf("chord (%v hops) should beat CAN (%v hops)", chord, can)
	}
	// Kleinberg with 30% of its nodes crashed and no repair sometimes
	// dead-ends and sometimes delivers.
	if d := cell("kleinberg l=10 p=0.3", 3); d <= 0 || d >= 1 {
		t.Errorf("kleinberg l=10 p=0.3 delivered %v, want strictly between 0 and 1", d)
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not a number", s)
	}
	return v
}
