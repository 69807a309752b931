package graph

import (
	"math"
	"testing"

	"repro/internal/metric"
	"repro/internal/rng"
)

// inDegree counts the up long links into p off the reverse index.
func inDegree(g *Graph, p metric.Point) int { return len(g.nodes[p].rev) }

func TestInDegreeBasics(t *testing.T) {
	g := New(mustRing(t, 16))
	if inDegree(g, 5) != 0 {
		t.Error("fresh node has in-degree 0")
	}
	if err := g.AddLong(0, 5); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLong(1, 5); err != nil {
		t.Fatal(err)
	}
	if inDegree(g, 5) != 2 {
		t.Errorf("in-degree = %d, want 2", inDegree(g, 5))
	}
	// Down links don't count.
	if err := g.SetLongUp(0, 0, false); err != nil {
		t.Fatal(err)
	}
	if inDegree(g, 5) != 1 {
		t.Errorf("in-degree after down = %d, want 1", inDegree(g, 5))
	}
}

// The §5 assumption, validated: in the ideal construction the in-degree
// of a node is approximately Poisson(ℓ) — mean ℓ and variance ℓ.
func TestIdealInDegreeIsPoisson(t *testing.T) {
	const n, links = 1 << 12, 8
	g, err := BuildIdeal(mustRing(t, n), PaperConfig(links), rng.New(33))
	if err != nil {
		t.Fatal(err)
	}
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		d := float64(inDegree(g, metric.Point(i)))
		sum += d
		sumSq += d * d
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-links) > 0.2 {
		t.Errorf("in-degree mean = %v, want ℓ = %d", mean, links)
	}
	// Poisson: variance ≈ mean. The inverse power-law concentration
	// near each node adds a little extra dispersion; allow 40%.
	if variance < float64(links)*0.6 || variance > float64(links)*1.8 {
		t.Errorf("in-degree variance = %v, want ≈ ℓ = %d (Poisson)", variance, links)
	}
	// P(deg = 0) ≈ e^{-ℓ} — essentially none at ℓ=8.
	zeros := 0
	for i := 0; i < n; i++ {
		if inDegree(g, metric.Point(i)) == 0 {
			zeros++
		}
	}
	if float64(zeros)/n > 0.01 {
		t.Errorf("%d of %d nodes have no in-links; Poisson(8) predicts ~0.03%%", zeros, n)
	}
}
