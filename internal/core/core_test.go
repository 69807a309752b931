package core

import (
	"testing"

	"repro/internal/construct"
)

func TestConfigDefaults(t *testing.T) {
	cfg, err := Config{Nodes: 1024}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Links != 10 {
		t.Errorf("default links = %d, want lg 1024 = 10", cfg.Links)
	}
	if cfg.Exponent != 1 {
		t.Errorf("default exponent = %v, want 1", cfg.Exponent)
	}
	cfg, err = Config{Nodes: 16, Exponent: ExponentUniform}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Exponent != 0 {
		t.Errorf("uniform exponent = %v, want 0 internally", cfg.Exponent)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 1}); err == nil {
		t.Error("single node should error")
	}
	if _, err := New(Config{Nodes: 16, Links: -1}); err == nil {
		t.Error("negative links should error")
	}
	if _, err := New(Config{Nodes: 16, Construction: Heuristic, Exponent: 2}); err == nil {
		t.Error("heuristic with exponent != 1 should error")
	}
}

func TestIdealNetworkSearch(t *testing.T) {
	nw, err := New(Config{Nodes: 1 << 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Search(3, 700, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Error("failure-free search should deliver")
	}
	if res.Hops <= 0 || res.Hops > 100 {
		t.Errorf("hops = %d", res.Hops)
	}
	st := nw.Stats()
	if st.Nodes != 1024 || st.Alive != 1024 {
		t.Errorf("stats = %+v", st)
	}
	if st.MeanDegree != 10 {
		t.Errorf("mean degree = %v, want 10", st.MeanDegree)
	}
	if nw.Config().Links != 10 {
		t.Error("resolved config not exposed")
	}
}

func TestRandomSearchWorkload(t *testing.T) {
	nw, err := New(Config{Nodes: 512, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		res, err := nw.RandomSearch(SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Delivered {
			t.Fatal("failure-free random search failed")
		}
	}
}

func TestLineSpace(t *testing.T) {
	nw, err := New(Config{Nodes: 256, Space: Line, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Search(0, 255, SearchOptions{Sidedness: OneSided})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Error("line one-sided search failed")
	}
}

func TestFailureInjection(t *testing.T) {
	nw, err := New(Config{Nodes: 1000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	crashed, err := nw.FailNodes(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if crashed != 300 || nw.Alive() != 700 {
		t.Errorf("crashed %d, alive %d", crashed, nw.Alive())
	}
	// Searches still mostly work with backtracking.
	delivered := 0
	for i := 0; i < 50; i++ {
		res, err := nw.RandomSearch(SearchOptions{DeadEnd: Backtrack})
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered {
			delivered++
		}
	}
	if delivered < 25 {
		t.Errorf("only %d/50 delivered under moderate damage", delivered)
	}
}

func TestHeuristicNetworkChurn(t *testing.T) {
	nw, err := New(Config{Nodes: 256, Construction: Heuristic, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if nw.Alive() != 256 {
		t.Fatalf("alive = %d", nw.Alive())
	}
	// Churn through the facade.
	if err := nw.RemoveNode(17); err != nil {
		t.Fatal(err)
	}
	if nw.Alive() != 255 {
		t.Errorf("alive after removal = %d", nw.Alive())
	}
	if err := nw.AddNode(17); err != nil {
		t.Fatal(err)
	}
	if nw.Alive() != 256 {
		t.Errorf("alive after re-add = %d", nw.Alive())
	}
	res, err := nw.RandomSearch(SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Error("search over churned heuristic network failed")
	}
}

func TestHeuristicReplacementStrategy(t *testing.T) {
	nw, err := New(Config{
		Nodes:        128,
		Construction: Heuristic,
		Replacement:  construct.Oldest,
		Seed:         6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.RandomSearch(SearchOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestIdealNetworkRejectsChurn(t *testing.T) {
	nw, err := New(Config{Nodes: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.AddNode(3); err == nil {
		t.Error("ideal network AddNode should error")
	}
	if err := nw.RemoveNode(3); err == nil {
		t.Error("ideal network RemoveNode should error")
	}
}

func TestDeterministicReproducibility(t *testing.T) {
	build := func() (Stats, Result) {
		nw, err := New(Config{Nodes: 512, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		res, err := nw.Search(1, 400, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return nw.Stats(), res
	}
	s1, r1 := build()
	s2, r2 := build()
	if s1 != s2 || r1.Hops != r2.Hops || r1.Delivered != r2.Delivered {
		t.Error("same seed should rebuild the identical network")
	}
}

func TestConfigDimDefaults(t *testing.T) {
	cfg, err := Config{Dim: 2, Side: 32}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 1024 {
		t.Errorf("derived nodes = %d, want 32^2 = 1024", cfg.Nodes)
	}
	if cfg.Links != 10 {
		t.Errorf("default links = %d, want lg 1024 = 10", cfg.Links)
	}
	if cfg.Exponent != 2 {
		t.Errorf("default exponent = %v, want the 2-D harmonic exponent 2", cfg.Exponent)
	}
	if _, err := (Config{Dim: 2}).withDefaults(); err == nil {
		t.Error("dim 2 without side should error")
	}
	if _, err := (Config{Dim: 2, Side: 8, Nodes: 17}).withDefaults(); err == nil {
		t.Error("nodes disagreeing with side^dim should error")
	}
	if _, err := (Config{Dim: 2, Side: 8, Space: Line}).withDefaults(); err == nil {
		t.Error("line with dim >= 2 should error")
	}
	if _, err := (Config{Nodes: 64, Side: 8}).withDefaults(); err == nil {
		t.Error("side on a 1-D config should error")
	}
	if _, err := (Config{Dim: -1, Nodes: 64}).withDefaults(); err == nil {
		t.Error("negative dim should error")
	}
}

func TestTorusNetworkEndToEnd(t *testing.T) {
	nw, err := New(Config{Dim: 2, Side: 24, Links: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if nw.Space().Dim() != 2 || nw.Space().Name() != "torus2d" {
		t.Errorf("space = %s dim %d", nw.Space().Name(), nw.Space().Dim())
	}
	if nw.Stats().Nodes != 576 {
		t.Errorf("nodes = %d, want 576", nw.Stats().Nodes)
	}
	// Healthy torus searches always deliver.
	for i := 0; i < 50; i++ {
		res, err := nw.RandomSearch(SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Delivered {
			t.Fatal("failure-free 2-D search failed")
		}
	}
	// The §6 damage model and recovery strategies run unchanged.
	if _, err := nw.FailNodes(0.3); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for i := 0; i < 50; i++ {
		res, err := nw.RandomSearch(SearchOptions{DeadEnd: Backtrack})
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered {
			delivered++
		}
	}
	if delivered < 40 {
		t.Errorf("backtracking delivered only %d/50 after 30%% failures", delivered)
	}
	// One-sided routing is undefined on a torus and must error.
	if _, err := nw.RandomSearch(SearchOptions{Sidedness: OneSided}); err == nil {
		t.Error("one-sided routing on a torus should error")
	}
}

func TestTorusHeuristicConstruction(t *testing.T) {
	nw, err := New(Config{Dim: 2, Side: 12, Links: 3, Construction: Heuristic, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.RandomSearch(SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Error("heuristic 2-D network failed a healthy search")
	}
	// Membership changes run through the same §5 protocol.
	if err := nw.RemoveNode(7); err != nil {
		t.Fatal(err)
	}
	if err := nw.AddNode(7); err != nil {
		t.Fatal(err)
	}
}
