package baseline

import (
	"testing"

	"repro/internal/failure"
	"repro/internal/metric"
	"repro/internal/rng"
)

func TestChordFailNodes(t *testing.T) {
	c, err := NewChord(10)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(1)
	crashed, err := c.FailNodes(0.5, src)
	if err != nil {
		t.Fatal(err)
	}
	if crashed != 512 {
		t.Errorf("crashed = %d, want 512", crashed)
	}
	alive := 0
	for id := 0; id < c.Nodes(); id++ {
		if c.Alive(id) {
			alive++
		}
	}
	if alive != 512 {
		t.Errorf("%d nodes alive after crashing 512 of 1024", alive)
	}
	// The fraction is of the live nodes: half of the 512 left.
	if crashed, _ := c.FailNodes(0.5, src); crashed != 256 {
		t.Errorf("second crash = %d, want 256", crashed)
	}
	if _, err := c.FailNodes(-1, src); err == nil {
		t.Error("invalid fraction should error")
	}
}

func TestChordDegradesUnderFailure(t *testing.T) {
	src := rng.New(2)
	c, err := NewChord(12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.FailNodes(0.5, src); err != nil {
		t.Fatal(err)
	}
	failed, total := 0, 0
	for i := 0; i < 300; i++ {
		from := src.Intn(c.Nodes())
		to := src.Intn(c.Nodes())
		if !c.Alive(from) || !c.Alive(to) || from == to {
			continue
		}
		total++
		if !c.Route(src, from, to).Delivered {
			failed++
		}
	}
	if total == 0 {
		t.Fatal("no usable endpoint pairs")
	}
	frac := float64(failed) / float64(total)
	// Chord without stabilization should visibly degrade at 50% dead:
	// its route to the target's vicinity runs through exact finger
	// positions (compare: the paper's backtracking stays near 0.04).
	if frac < 0.1 {
		t.Errorf("chord failed frac = %v; expected heavy degradation without repair", frac)
	}
}

func TestChordAliveDefault(t *testing.T) {
	c, err := NewChord(6)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Alive(5) {
		t.Error("all nodes alive before FailNodes")
	}
	// Routing unchanged before failures.
	if !c.Route(rng.New(1), 0, 63).Delivered {
		t.Error("failure-free chord should deliver")
	}
}

func TestKleinbergFailNodes(t *testing.T) {
	src := rng.New(3)
	g, r := gridNetwork(t, 32, 1, src)
	crashed, err := failure.FailNodesFraction(g, 0.3, src)
	if err != nil {
		t.Fatal(err)
	}
	if crashed != 307 {
		t.Errorf("crashed = %d", crashed)
	}
	failed, total := 0, 0
	for i := 0; i < 300; i++ {
		from := metric.Point(src.Intn(g.Size()))
		to := metric.Point(src.Intn(g.Size()))
		if !g.Alive(from) || !g.Alive(to) || from == to {
			continue
		}
		total++
		res, err := r.Route(src, from, to)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Delivered {
			failed++
		}
	}
	if total == 0 {
		t.Fatal("no usable endpoint pairs")
	}
	if failed == 0 {
		t.Error("kleinberg with 30% dead and q=1 should sometimes dead-end")
	}
	if float64(failed)/float64(total) > 0.95 {
		t.Error("kleinberg should still deliver sometimes")
	}
}

func TestAliveSetExhaustion(t *testing.T) {
	c, err := NewChord(2)
	if err != nil {
		t.Fatal(err)
	}
	crashed, err := c.FailNodes(1, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if crashed != 4 {
		t.Errorf("crashed = %d, want all 4", crashed)
	}
	for id := 0; id < 4; id++ {
		if c.Alive(id) {
			t.Errorf("node %d survived a crash of every node", id)
		}
	}
	if crashed, _ := c.FailNodes(1, rng.New(5)); crashed != 0 {
		t.Errorf("crashed %d of an extinct network", crashed)
	}
	if c.Route(nil, 0, 1).Delivered {
		t.Error("an extinct network must not deliver")
	}
	if c.Alive(-1) || c.Alive(4) {
		t.Error("out of range must not be alive")
	}
}
