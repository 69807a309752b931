// Package failure implements the failure models of §4.3.3–§4.3.4 and §6:
// independent link failures, post-construction node crashes, the
// binomially-present node model, and an adversarial contiguous-interval
// model used for robustness testing beyond the paper.
//
// The models come in two kinds. The static injectors (FailLinks,
// FailNodes, and friends) mutate a graph.Graph in place before an
// experiment starts. ChurnSpec is the dynamic side: it describes node
// lifecycle behaviour over virtual time — background crash/join churn,
// a correlated regional kill, a flash-crowd join — and Generate
// expands it into a timestamped ChurnEvent schedule without touching
// the graph; the discrete-event engine applies those events on the
// same clock as the traffic (see internal/load's Config.Churn).
// AliveView replays a schedule over a graph's initial alive set for
// validation. Everything is deterministic given an rng.Source, so
// experiments remain reproducible.
package failure

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
)

// FailLinks takes each long-distance link down independently with
// probability 1−p, i.e. each link remains present with probability p
// (the model of Theorem 15/16; short links never fail, matching the
// paper's assumption that "links to the immediate neighbors are always
// present"). Every link draws, up or not. It returns the number of
// links it took down, not counting a link that was down already.
func FailLinks(g *graph.Graph, p float64, src *rng.Source) (down int, err error) {
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("failure: link-present probability %v outside [0,1]", p)
	}
	for i := 0; i < g.Size(); i++ {
		pt := metric.Point(i)
		for k, lk := range g.Long(pt) {
			if !src.Bool(p) && lk.Up {
				if err := g.SetLongUp(pt, k, false); err != nil {
					return down, err
				}
				down++
			}
		}
	}
	return down, nil
}

// FailNodesFraction crashes an exact fraction f of the currently-alive
// nodes, chosen uniformly at random. It returns the number of nodes
// crashed.
func FailNodesFraction(g *graph.Graph, f float64, src *rng.Source) (int, error) {
	if f < 0 || f > 1 {
		return 0, fmt.Errorf("failure: fraction %v outside [0,1]", f)
	}
	candidates := make([]metric.Point, 0, g.AliveCount())
	for i := 0; i < g.Size(); i++ {
		if p := metric.Point(i); g.Alive(p) {
			candidates = append(candidates, p)
		}
	}
	target := int(f * float64(len(candidates)))
	// Partial Fisher–Yates: select the first `target` of a shuffle.
	for i := 0; i < target; i++ {
		j := i + src.Intn(len(candidates)-i)
		candidates[i], candidates[j] = candidates[j], candidates[i]
		g.Fail(candidates[i])
	}
	return target, nil
}

// FailNodesProb crashes each alive node independently with probability
// p (the model of Theorem 18). It returns the number of nodes crashed.
func FailNodesProb(g *graph.Graph, p float64, src *rng.Source) (int, error) {
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("failure: probability %v outside [0,1]", p)
	}
	crashed := 0
	for i := 0; i < g.Size(); i++ {
		pt := metric.Point(i)
		if g.Alive(pt) && src.Bool(p) {
			g.Fail(pt)
			crashed++
		}
	}
	return crashed, nil
}

// BinomialPresence returns a presence mask in which each of the n grid
// points hosts a node independently with probability p (§4.3.4.1). The
// mask is guaranteed non-empty: if the draw leaves no nodes, one
// uniformly random point is forced present so the graph constructor
// does not reject it.
func BinomialPresence(n int, p float64, src *rng.Source) ([]bool, error) {
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("failure: presence probability %v outside [0,1]", p)
	}
	if n <= 0 {
		return nil, fmt.Errorf("failure: presence mask needs n >= 1, got %d", n)
	}
	mask := make([]bool, n)
	any := false
	for i := range mask {
		mask[i] = src.Bool(p)
		any = any || mask[i]
	}
	if !any {
		mask[src.Intn(n)] = true
	}
	return mask, nil
}

// MarkMalicious turns each live node Byzantine independently with
// probability p (§7 names robustness against Byzantine failures as
// future work; the ext.byzantine experiment explores it). Malicious
// nodes stay in the overlay but silently drop messages routed through
// them. Every live node draws, malicious or not. It returns the number
// of nodes it marked, not counting one that was malicious already.
func MarkMalicious(g *graph.Graph, p float64, src *rng.Source) (int, error) {
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("failure: malicious probability %v outside [0,1]", p)
	}
	marked := 0
	for i := 0; i < g.Size(); i++ {
		pt := metric.Point(i)
		if g.Alive(pt) && src.Bool(p) && !g.Malicious(pt) {
			if err := g.SetMalicious(pt, true); err != nil {
				return marked, err
			}
			marked++
		}
	}
	return marked, nil
}

// FailInterval crashes every alive node in the contiguous interval of
// `width` points starting at `start` (wrapping on a ring, clipped on a
// line). Contiguous loss is the worst case for a structure whose short
// links are the fallback route; the paper's random-failure experiments
// never produce it at scale, so this injector is used by robustness
// tests. It returns the number of nodes crashed.
func FailInterval(g *graph.Graph, start metric.Point, width int, protect ...metric.Point) int {
	protected := make(map[metric.Point]bool, len(protect))
	for _, p := range protect {
		protected[p] = true
	}
	crashed := 0
	cur := start
	for i := 0; i < width; i++ {
		if g.Alive(cur) && !protected[cur] {
			if g.Fail(cur) {
				crashed++
			}
		}
		next, ok := g.Space().Step(cur, +1)
		if !ok {
			break
		}
		cur = next
	}
	return crashed
}
