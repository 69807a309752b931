package experiments

import (
	"strings"
	"testing"
)

// TestSaturationExperimentsRegistered pins the ext.saturation.* ids the
// CLI and bench harness depend on.
func TestSaturationExperimentsRegistered(t *testing.T) {
	for _, id := range []string{
		"ext.saturation.knee", "ext.saturation.policies",
	} {
		if _, err := Get(id); err != nil {
			t.Errorf("missing experiment %s: %v", id, err)
		}
	}
}

// TestSaturationKneeTable runs the knee sweep at a reduced scale and
// checks its shape: a curve of ascending offered loads per scenario, at
// least one unstable point, and a KNEE summary row.
func TestSaturationKneeTable(t *testing.T) {
	table, err := Run("ext.saturation.knee", Params{N: 512, Msgs: 1536, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := table.String()
	for _, want := range []string{"ring healthy", "torus healthy", "KNEE", "UNSTABLE", "stable"} {
		if !strings.Contains(s, want) {
			t.Errorf("knee table missing %q:\n%s", want, s)
		}
	}
}

// TestSaturationKneeDeterministicAcrossWorkers extends the traffic
// determinism contract to the sweep driver: byte-identical tables for
// any worker count.
func TestSaturationKneeDeterministicAcrossWorkers(t *testing.T) {
	small := Params{N: 512, Msgs: 1200, Seed: 7}
	var want string
	for _, workers := range []int{1, 4} {
		p := small
		p.Workers = workers
		table, err := Run("ext.saturation.knee", p)
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
}

// TestDepthAwareKneeOnFailedTorus is the acceptance criterion: on the
// 30%-failed torus rows of ext.saturation.policies (its default
// parameters), the depth-aware policy's knee throughput must be at
// least plain greedy's. It sweeps only the failed networks, the rows it
// reads.
func TestDepthAwareKneeOnFailedTorus(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale sweep skipped in -short mode")
	}
	table, err := saturationFailedGrid.run(Params{})
	if err != nil {
		t.Fatal(err)
	}
	kneeThr := map[string]float64{}
	for _, row := range table.Rows {
		if row[0] == "torus 30% failed" {
			kneeThr[row[1]] = parseF(t, row[3])
		}
	}
	if table.Columns[3] != "knee thr" || len(kneeThr) != 3 {
		t.Fatalf("unexpected table shape:\n%s", table)
	}
	if kneeThr["greedy"] <= 0 {
		t.Fatalf("greedy knee throughput %v, want positive", kneeThr["greedy"])
	}
	if kneeThr["depth-aware"] < kneeThr["greedy"] {
		t.Errorf("depth-aware knee throughput %.4f < greedy %.4f",
			kneeThr["depth-aware"], kneeThr["greedy"])
	}
}

// TestSweepsResolveTheTrafficFlags pins the one-resolver contract: a
// sweep's load.Config comes from the same loadConfig as a fixed-rate
// run's, so -replicas/-cache reach load.Sweep and move the knee, and a
// combination the load layer cannot run is rejected instead of silently
// dropped. (That flagless output did not move is tiny.golden's job.)
func TestSweepsResolveTheTrafficFlags(t *testing.T) {
	kneeRows := func(p Params) string {
		t.Helper()
		table, err := Run("ext.saturation.knee", p)
		if err != nil {
			t.Fatal(err)
		}
		var knees []string
		for _, row := range table.Rows {
			if strings.HasSuffix(row[0], "KNEE") {
				knees = append(knees, strings.Join(row, " | "))
			}
		}
		if len(knees) != 2 {
			t.Fatalf("want one KNEE row per scenario:\n%s", table)
		}
		return strings.Join(knees, "\n")
	}
	small := Params{N: 512, Msgs: 1536, Seed: 5}
	replicated := small
	replicated.Replicas, replicated.Cache = 4, 16
	if plain, got := kneeRows(small), kneeRows(replicated); got == plain {
		t.Errorf("-replicas 4 -cache 16 left the knee rows unchanged:\n%s", got)
	}
	churned := small
	churned.ChurnRate = 0.1 // churn needs -live
	if _, err := Run("ext.saturation.knee", churned); err == nil || !strings.Contains(err.Error(), "live") {
		t.Errorf("-churn without -live: err = %v, want load.Config.Validate's rejection", err)
	}
}
