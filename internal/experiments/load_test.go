package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// TestLoadExperimentsRegistered pins the ext.load.* id the CLI and
// bench harness depend on.
func TestLoadExperimentsRegistered(t *testing.T) {
	for _, id := range []string{"ext.load.policy"} {
		if _, err := Get(id); err != nil {
			t.Errorf("missing experiment %s: %v", id, err)
		}
	}
}

// TestLoadZipfDeterministicAcrossWorkers is the acceptance property:
// the rendered Zipf table of ext.load.policy is byte-identical for the
// same seed regardless of the worker count.
func TestLoadZipfDeterministicAcrossWorkers(t *testing.T) {
	small := Params{N: 512, Msgs: 120, Seed: 3}
	var want string
	for _, workers := range []int{1, 3, 8} {
		p := small
		p.Workers = workers
		table, err := Run("ext.load.policy", p)
		if err != nil {
			t.Fatal(err)
		}
		got := table.String()
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("workers=%d output diverged:\n%s\nvs workers=1:\n%s", workers, got, want)
		}
	}
	for _, col := range []string{"max load", "mean load", "p99 lat", "queue depth"} {
		if !strings.Contains(want, col) {
			t.Errorf("table missing column %q:\n%s", col, want)
		}
	}
}

// TestLoadPolicyReducesMaxLoad checks the headline claim row by row:
// load-aware max load strictly below plain greedy on every scenario,
// at no worse delivery.
func TestLoadPolicyReducesMaxLoad(t *testing.T) {
	table, err := Run("ext.load.policy", Params{N: 1024, Msgs: 400, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows)%2 != 0 || len(table.Rows) == 0 {
		t.Fatalf("policy table should pair greedy/load-aware rows, got %d", len(table.Rows))
	}
	for i := 0; i < len(table.Rows); i += 2 {
		greedy, aware := table.Rows[i], table.Rows[i+1]
		if greedy[1] != "greedy" || aware[1] != "load-aware" {
			t.Fatalf("unexpected policy order: %v / %v", greedy[1], aware[1])
		}
		gMax, err1 := strconv.Atoi(greedy[2])
		aMax, err2 := strconv.Atoi(aware[2])
		if err1 != nil || err2 != nil {
			t.Fatalf("non-numeric max load: %q %q", greedy[2], aware[2])
		}
		if aMax >= gMax {
			t.Errorf("%s: load-aware max load %d should beat greedy %d", greedy[0], aMax, gMax)
		}
	}
}

// TestLoadWorkloadsSweep sanity-checks -workload on ext.load.policy:
// on the healthy ring, greedy, flood traffic must push the hottest node
// past uniform traffic's.
func TestLoadWorkloadsSweep(t *testing.T) {
	maxLoad := func(workload string) int {
		t.Helper()
		table, err := Run("ext.load.policy", Params{N: 512, Msgs: 200, Seed: 4, Workload: workload})
		if err != nil {
			t.Fatal(err)
		}
		row := table.Rows[0]
		v, err := strconv.Atoi(row[2])
		if row[0] != "ring healthy" || row[1] != "greedy" || err != nil {
			t.Fatalf("row 0 is not the healthy ring's greedy max load: %v", row)
		}
		return v
	}
	if flood, uniform := maxLoad("flood"), maxLoad("uniform"); flood <= uniform {
		t.Errorf("flood max load %d should exceed uniform %d", flood, uniform)
	}
}
