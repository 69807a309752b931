package engine

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/metric"
	"repro/internal/rng"
)

// Churn repairs redirect links, and each redirect stales the rows of
// the link's node and of its old and new target. The engine re-derives
// them once per batch of churn ops: at the window barrier under the
// windowed driver, where shards then read them while they drain, and
// before the next event under the one-owner driver. After a sharded run
// the rows are fresh but for the few a refresh could not fit; after
// either run every row served from the cache equals the gather; and the
// two runs agree.
func TestChurnRowsStayFresh(t *testing.T) {
	var outs []*Outcome
	for _, shards := range []int{1, 2} {
		g, msgs, sched, cfg := churnPITScenario(t, 1<<11, false)
		cfg.Shards = shards
		out, err := Run(g, msgs, sched, cfg, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		if out.LinksRebuilt == 0 {
			t.Fatalf("shards=%d: no link was rebuilt, so no row went stale", shards)
		}
		stale := 0
		for p := 0; p < g.Size(); p++ {
			row, cached := g.Row(nil, metric.Point(p), true)
			if !cached {
				stale++
				continue
			}
			want := g.AppendNeighbors(nil, metric.Point(p), true)
			if !slices.EqualFunc(row, want, func(a int32, b metric.Point) bool { return metric.Point(a) == b }) {
				t.Fatalf("shards=%d: node %d's cached row %v, gather %v", shards, p, row, want)
			}
		}
		// A refresh leaves stale only rows that outgrew their storage,
		// and rebuilds them all once they are more than a sixteenth.
		if shards > 1 && stale > g.Size()/16 {
			t.Errorf("shards=%d: %d rows still stale after the last barrier (%d links rebuilt)",
				shards, stale, out.LinksRebuilt)
		}
		outs = append(outs, out)
	}
	// The resolved plan differs by construction; the rest may not.
	outs[1].Plan, outs[1].PlanReason = outs[0].Plan, outs[0].PlanReason
	if !reflect.DeepEqual(outs[0], outs[1]) {
		t.Error("the sharded churn run diverged from the one-owner run")
	}
}
