package experiments

import "testing"

// TestEngineExperimentsRegistered pins the ext.engine.* id the CLI
// and bench harness depend on.
func TestEngineExperimentsRegistered(t *testing.T) {
	for _, id := range []string{"ext.engine.flood"} {
		if _, err := Get(id); err != nil {
			t.Errorf("missing experiment %s: %v", id, err)
		}
	}
}

// TestEngineFloodDeterministicAcrossWorkers extends the worker
// invariance contract to the engine-mode ladder end to end: the
// snapshot sweep parallelizes path computation, the live sweeps take
// their parallelism from Shards rather than Workers, and the table
// must not move a byte either way.
func TestEngineFloodDeterministicAcrossWorkers(t *testing.T) {
	small := Params{N: 256, Msgs: 600, Seed: 7}
	var want string
	for _, workers := range []int{1, 4} {
		p := small
		p.Workers = workers
		table, err := Run("ext.engine.flood", p)
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

// TestParamsLiveAggregateThreading checks the flag plumbing: -aggregate
// implies live mode, and the run labels carry the mode.
func TestParamsLiveAggregateThreading(t *testing.T) {
	cfg, err := loadConfig(Params{Msgs: 10, Aggregate: true})
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Live || !cfg.Aggregate {
		t.Errorf("Aggregate params did not imply live engine config: %+v", cfg)
	}
	cfg, err = loadConfig(Params{Msgs: 10, Live: true})
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Live || cfg.Aggregate {
		t.Errorf("Live params mis-threaded: %+v", cfg)
	}
}
