package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
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
	want := []string{
		"table1.nofail.l1", "table1.nofail.multi", "table1.nofail.detb",
		"table1.linkfail.multi", "table1.linkfail.detb",
		"table1.nodefail.binomial", "table1.nodefail.general",
		"fig5a", "fig5b", "fig6a", "fig6b", "fig6a.d2", "fig6b.d2", "fig7",
		"ablation.replacement", "ablation.backtrack", "ablation.sidedness",
		"ablation.exponent", "baselines", "theory",
		"ext.faultcompare", "ext.2d", "ext.byzantine", "ext.physical",
		"ablation.space", "ext.churn", "table1.bounds",
	}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if len(ids) < len(want) {
		t.Errorf("registry has %d experiments, want at least %d", len(ids), len(want))
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
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not a number", s)
	}
	return v
}
