package proptest

import (
	"reflect"
	"testing"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/load"
)

// ChurnSpec draws a seeded churn schedule description: background
// Poisson churn over an explicit horizon, optionally a correlated
// regional kill and a flash-crowd join, with resolved gossip knobs.
// The horizon is always explicit — never left for load's
// Messages/Rate defaulting — so a test can re-expand the schedule with
// failure.ChurnSpec.Generate and reproduce the engine's exact event
// list.
func (g *Gen) ChurnSpec(t testing.TB) failure.ChurnSpec {
	t.Helper()
	spec := failure.ChurnSpec{
		Rate:           0.05 + float64(0.2*g.src.Float64()),
		Horizon:        40 + float64(80*g.src.Float64()),
		ProbeTimeout:   1 + float64(3*g.src.Float64()),
		GossipInterval: 0.5 + g.src.Float64(),
		GossipFanout:   1 + g.src.Intn(3),
		Repair:         g.src.Bool(0.5),
	}
	if g.src.Bool(0.5) {
		spec.KillFrac = 0.1 + float64(0.2*g.src.Float64())
		spec.KillAt = spec.Horizon * g.src.Float64()
	}
	if g.src.Bool(0.4) {
		spec.FlashJoin = 1 + g.src.Intn(20)
		spec.FlashAt = spec.Horizon * g.src.Float64()
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("proptest: drew an invalid churn spec: %v", err)
	}
	return spec
}

// CheckShardInvarianceChurn is CheckShardInvariance for runs that
// mutate their graph: churn applies crashes, joins, and link repairs
// to the graph in place, so the shard counts cannot share one graph —
// each run gets a fresh, deterministically rebuilt copy from build.
// Results must still be deeply equal at 1, 2, 4 and 7 shards: churn
// runs shard whenever ProbeTimeout covers the service time (membership
// mutations apply at window barriers, windows clip at churn-op
// instants), so this fuzzes the sharded churn loop against its
// sequential reference byte-for-byte; fast-probe draws exercise the
// sequential fallback gate instead. Returns the single-shard result.
func CheckShardInvarianceChurn(t testing.TB, build func(testing.TB) *graph.Graph,
	gen load.Generator, cfg load.Config, seed uint64) *load.Result {
	t.Helper()
	var want *load.Result
	for _, shards := range []int{1, 2, 4, 7} {
		c := cfg
		c.Shards = shards
		got, err := load.Run(build(t), gen, c, seed)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if want == nil {
			want = got
			continue
		}
		// One shard resolves via the single-shard reason, several via the
		// sharded plan (or the fast-probe fallback); the invariance
		// contract covers every simulation output, not the plan's label.
		got.Plan, got.PlanReason = want.Plan, want.PlanReason
		if !reflect.DeepEqual(want, got) {
			t.Errorf("shards=%d diverged from shards=1:\n%s", shards, diffSummary(want, got))
		}
	}
	return want
}

// CheckChurnLedger asserts the churn conservation identities every run
// must satisfy exactly: message conservation, the strand ledger, and
// rumor resolution (every applied event's rumor ends converged or
// abandoned — the run drains to membership quiescence).
func CheckChurnLedger(t testing.TB, res *load.Result) {
	t.Helper()
	if res.Injected != res.Delivered+res.Failed {
		t.Errorf("conservation broke: injected %d != delivered %d + failed %d",
			res.Injected, res.Delivered, res.Failed)
	}
	if res.Stranded != res.StrandResumed+res.StrandDropped {
		t.Errorf("strand ledger broke: stranded %d != resumed %d + dropped %d",
			res.Stranded, res.StrandResumed, res.StrandDropped)
	}
	if res.RumorsConverged+res.RumorsAbandoned != res.Crashes+res.Joins {
		t.Errorf("rumor ledger broke: %d converged + %d abandoned != %d crashes + %d joins",
			res.RumorsConverged, res.RumorsAbandoned, res.Crashes, res.Joins)
	}
}
