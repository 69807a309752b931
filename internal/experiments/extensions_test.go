package experiments

import (
	"strings"
	"testing"
)

// Each extension experiment carries a qualitative claim; these tests
// pin the claims at small scale so regressions in the underlying
// machinery surface as semantic failures, not just number drift.

func TestByzantineRedundancyHelps(t *testing.T) {
	tbl, err := Run("ext.byzantine", Params{N: 1 << 11, Trials: 2, Msgs: 100, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		p := parseF(t, row[0])
		direct := parseF(t, row[1])
		four := parseF(t, row[3])
		if p == 0 {
			if direct != 1 || four != 1 {
				t.Errorf("no malicious nodes should mean full delivery: %v", row)
			}
			continue
		}
		if four < direct {
			t.Errorf("p=%v: 4 copies (%v) should not deliver less than direct (%v)", p, four, direct)
		}
	}
	// At moderate attack rates redundancy must help strictly.
	mid := tbl.Rows[2] // p = 0.1
	if parseF(t, mid[3]) <= parseF(t, mid[1]) {
		t.Errorf("at p=0.1 redundancy should strictly help: %v", mid)
	}
}

// TestFaultCompareBacktrackWins reads baselines' failure rows: at
// p = 0.7 the backtracking overlay delivers more lookups than Chord and
// Kleinberg.
func TestFaultCompareBacktrackWins(t *testing.T) {
	tbl, err := Run("baselines", Params{N: 1 << 11, Trials: 2, Msgs: 100, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	delivered := map[string]float64{}
	for _, row := range tbl.Rows {
		delivered[row[0]] = parseF(t, row[3])
	}
	ours, ok1 := delivered["aspnes-shah backtracking p=0.7"]
	chord, ok2 := delivered["chord p=0.7"]
	kleinberg, ok3 := delivered["kleinberg l=11 p=0.7"]
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("baselines lacks the p=0.7 failure rows:\n%s", tbl)
	}
	if ours <= chord || ours <= kleinberg {
		t.Errorf("backtracking overlay (%v) should deliver more than chord (%v) and kleinberg (%v) at p=0.7",
			ours, chord, kleinberg)
	}
}

func TestPhysicalFailuresMatchIndependent(t *testing.T) {
	tbl, err := Run("ext.physical", Params{N: 1 << 12, Trials: 3, Msgs: 150, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		machine := parseF(t, row[1])
		independent := parseF(t, row[2])
		// The hash de-correlates machine crashes: the two failure
		// modes must land within a small absolute gap.
		if diff := machine - independent; diff > 0.12 || diff < -0.12 {
			t.Errorf("fraction %s: machine %v vs independent %v differ too much",
				row[0], machine, independent)
		}
	}
}

func TestChurnRepairsRecover(t *testing.T) {
	tbl, err := Run("ext.churn", Params{N: 1 << 10, Trials: 2, Msgs: 100, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if !strings.Contains(row[0], "repaired") {
			continue
		}
		if frac := parseF(t, row[1]); frac > 0.02 {
			t.Errorf("phase %q: failed frac %v after repair, want ≈ 0", row[0], frac)
		}
	}
}

func TestSpaceAblationComparable(t *testing.T) {
	tbl, err := Run("ablation.space", Params{N: 1 << 11, Trials: 2, Msgs: 100, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	// Same links on line vs ring: hops within 40% of each other.
	hops := map[string]float64{}
	for _, row := range tbl.Rows {
		hops[row[0]+"/"+row[1]] = parseF(t, row[2])
	}
	for _, links := range []string{"1"} {
		r, l := hops["ring/"+links], hops["line/"+links]
		if r == 0 || l == 0 {
			t.Fatalf("missing rows: %v", hops)
		}
		if l/r > 1.4 || r/l > 1.4 {
			t.Errorf("links=%s: line %v vs ring %v diverge beyond boundary effects", links, l, r)
		}
	}
}

func TestBoundsTablePure(t *testing.T) {
	tbl, err := Run("table1.bounds", Params{N: 1 << 14, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 7 {
		t.Fatalf("Table 1 has 7 bound rows, got %d", len(tbl.Rows))
	}
	// Upper bounds must be positive and the deterministic row equals
	// ceil(log2 n) = 14.
	for _, row := range tbl.Rows {
		if parseF(t, row[2]) <= 0 {
			t.Errorf("non-positive upper bound: %v", row)
		}
	}
	if parseF(t, tbl.Rows[2][2]) != 14 {
		t.Errorf("deterministic bound = %v, want 14", tbl.Rows[2][2])
	}
}
