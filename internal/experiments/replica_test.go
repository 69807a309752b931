package experiments

import (
	"strings"
	"testing"
)

// TestReplicaExperimentsRegistered pins the ext.replica.* ids the CLI
// and bench harness depend on.
func TestReplicaExperimentsRegistered(t *testing.T) {
	for _, id := range []string{
		"ext.replica.flood", "ext.replica.zipf", "ext.replica.churn",
	} {
		if _, err := Get(id); err != nil {
			t.Errorf("missing experiment %s: %v", id, err)
		}
	}
}

// TestReplicaZipfTable runs the placement comparison at a reduced scale
// and checks its shape: every placement row on both scenarios, and the
// cache strategy actually placing copies.
func TestReplicaZipfTable(t *testing.T) {
	table, err := Run("ext.replica.zipf", Params{N: 512, Msgs: 400, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := table.String()
	for _, want := range []string{
		"ring healthy", "torus healthy",
		"none", "hash", "antipodal", "cache-on-path", "max served",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("zipf replica table missing %q:\n%s", want, s)
		}
	}
}

// TestReplicaChurnDeterministicAcrossWorkers extends the worker
// invariance contract to the replica pipeline end to end.
func TestReplicaChurnDeterministicAcrossWorkers(t *testing.T) {
	small := Params{N: 256, Msgs: 200, Seed: 7}
	var want string
	for _, workers := range []int{1, 4} {
		p := small
		p.Workers = workers
		table, err := Run("ext.replica.churn", p)
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

// TestReplicaFloodKneeLift is the acceptance criterion: on the
// 30%-failed torus scenario of ext.replica.flood (its default
// parameters), k = 4 replicas with cache-on-path must lift the flood
// knee throughput at least 3x over the unreplicated baseline.
func TestReplicaFloodKneeLift(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale sweep skipped in -short mode")
	}
	e, err := Get("ext.replica.flood")
	if err != nil {
		t.Fatal(err)
	}
	_, v, err := e.Measure(Params{})
	if err != nil {
		t.Fatal(err)
	}
	base, replicated := v["knee_throughput_k1"].(float64), v["knee_throughput_k4"].(float64)
	if base <= 0 {
		t.Fatalf("baseline knee throughput %v, want positive", base)
	}
	if lift := v["knee_lift"].(float64); lift < 3 || lift != replicated/base {
		t.Errorf("k=4+cache flood knee lift %.3f (thr %.3f vs %.3f), want >= 3",
			lift, replicated, base)
	}
}
