package engine

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
)

func churnKnobs(events ...failure.ChurnEvent) ChurnConfig {
	return ChurnConfig{Events: events, ProbeTimeout: 2, GossipInterval: 1, GossipFanout: 1}
}

func TestChurnConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  ChurnConfig
		mode Mode
		want string // error substring, "" = valid
	}{
		{"disabled snapshot", ChurnConfig{}, ModeSnapshot, ""},
		{"knobs live", churnKnobs(), ModeLive, ""},
		{"events pit", churnKnobs(failure.ChurnEvent{Time: 1}), ModeLivePIT, ""},
		{"snapshot", churnKnobs(), ModeSnapshot, "churn requires a live mode"},
		{"no probe", ChurnConfig{GossipInterval: 1, GossipFanout: 1}, ModeLive,
			"churn probe timeout"},
		{"no interval", ChurnConfig{ProbeTimeout: 1, GossipFanout: 1}, ModeLive,
			"churn gossip interval"},
		{"no fanout", ChurnConfig{ProbeTimeout: 1, GossipInterval: 1}, ModeLive,
			"churn gossip fanout"},
		{"negative event time", churnKnobs(failure.ChurnEvent{Time: -1}), ModeLive,
			"must be finite and non-negative"},
		{"events out of order", churnKnobs(
			failure.ChurnEvent{Time: 5}, failure.ChurnEvent{Time: 2}), ModeLive,
			"out of time order"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.validate(tc.mode)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not contain %q", err, tc.want)
			}
		})
	}
}

// TestPlanChurnEligibility pins churn's execution plan: churn on a
// multi-shard live config shards whenever the probe timeout covers the
// one-service-time lookahead (a strand resume then lands at or beyond
// the window horizon); a faster probe falls back to the sequential
// loop with the pinned PlanReasonChurn. A single shard keeps its own
// (earlier) reason.
func TestPlanChurnEligibility(t *testing.T) {
	cfg := baseConfig()
	cfg.Mode = ModeLive
	cfg.Shards = 4
	cfg.Churn = churnKnobs() // ProbeTimeout 2 ≥ 1/Capacity 1: eligible
	plan, reason := cfg.Plan(Schedule{})
	if plan != PlanLiveSharded || reason != PlanReasonSharded {
		t.Errorf("eligible churn: plan = %v (%q), want live-sharded", plan, reason)
	}
	cfg.Churn.ProbeTimeout = 0.5 // shorter than the service time: fallback
	plan, reason = cfg.Plan(Schedule{})
	if plan != PlanLiveSequential || reason != PlanReasonChurn {
		t.Errorf("fast probe: plan = %v (%q), want live-sequential with PlanReasonChurn", plan, reason)
	}
	cfg.Churn.ProbeTimeout = 1 // exactly the service time: eligible
	plan, reason = cfg.Plan(Schedule{})
	if plan != PlanLiveSharded || reason != PlanReasonSharded {
		t.Errorf("boundary probe: plan = %v (%q), want live-sharded", plan, reason)
	}
	cfg.Shards = 1
	plan, reason = cfg.Plan(Schedule{})
	if plan != PlanLiveSequential || reason != PlanReasonSingleShard {
		t.Errorf("single shard: plan = %v (%q), want the single-shard reason", plan, reason)
	}
}

// TestChurnKnobsOnlyByteIdentical: attaching the churn machinery with
// gossip knobs but no events must not perturb a single outcome byte —
// the engine half of the differential contract regress pins at golden
// level.
func TestChurnKnobsOnlyByteIdentical(t *testing.T) {
	g := testGraph(t, 512, 9, 3, 5)
	msgs := testMessages(t, g, 200, 4)
	cfg := baseConfig()
	cfg.Mode = ModeLive
	plain, err := Run(g, msgs, periodicSchedule(len(msgs), 2), cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Churn = churnKnobs()
	knobs, err := Run(g, msgs, periodicSchedule(len(msgs), 2), cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, knobs) {
		t.Error("knobs-only churn perturbed a churn-free live run")
	}
}

// oneShot runs a single From→Key lookup on g in plain live mode,
// injected at time `at` with unit capacity, and asks for its path;
// injected at 0, the walk visits Path[i] at virtual time i and
// Path[i]'s service occupies [i, i+1).
func oneShot(t *testing.T, g *graph.Graph, churn ChurnConfig, mode Mode, at float64) *Outcome {
	t.Helper()
	cfg := baseConfig()
	cfg.Route.TracePath = true
	cfg.Mode = mode
	cfg.Churn = churn
	out, err := Run(g, []Message{{From: 0, Key: 32}},
		Schedule{Initial: []Injection{{Msg: 0, Time: at}}}, cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	requireExactIndex(t, g)
	return out
}

// requireExactIndex asserts, after a run that crashed, rejoined and
// re-linked nodes, that the graph's reverse index is still exact — the
// invariant every forwarding step of the run relied on.
func requireExactIndex(t *testing.T, g *graph.Graph) {
	t.Helper()
	if err := g.CheckReverseIndex(); err != nil {
		t.Error(err)
	}
}

// relayOf returns the first relay (second path node) of the lookup's
// churn-free walk — the node the edge-case tests crash.
func relayOf(t *testing.T, g *graph.Graph) (metric.Point, *Outcome) {
	t.Helper()
	out := oneShot(t, g, ChurnConfig{}, ModeLive, 0)
	path := out.Results[0].Path
	if !out.Results[0].Delivered || len(path) < 3 {
		t.Fatalf("baseline walk unsuitable: delivered=%v path=%v",
			out.Results[0].Delivered, path)
	}
	return path[1], out
}

// TestChurnDieAfterCommit: the relay crashes mid-service — after the
// arrival committed, before the service finishes. Die-after-commit
// means the committed service completes and the lookup proceeds
// undisturbed: nothing strands, nothing is lost.
func TestChurnDieAfterCommit(t *testing.T) {
	g := testGraph(t, 64, 8, 31, 0)
	relay, base := relayOf(t, g)
	// The relay is visited at t=1 and serves over [1,2); crash at 1.5.
	out := oneShot(t, g, churnKnobs(
		failure.ChurnEvent{Time: 1.5, Kind: failure.ChurnCrash, Node: relay}), ModeLive, 0)
	if out.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", out.Crashes)
	}
	if out.Stranded != 0 {
		t.Errorf("stranded = %d, want 0: the committed service must complete", out.Stranded)
	}
	if !out.Results[0].Delivered {
		t.Error("lookup must deliver despite the mid-service crash")
	}
	if out.Loads[relay] < 1 {
		t.Error("the dying relay's committed service was not charged")
	}
	if len(out.Latencies) != 1 || len(base.Latencies) != 1 ||
		out.Latencies[0] != base.Latencies[0] {
		t.Errorf("latency %v changed from churn-free %v: the walk should be undisturbed",
			out.Latencies, base.Latencies)
	}
}

// TestChurnStrandReroute: the relay crashes before the lookup arrives.
// The arrival strands, waits one ProbeTimeout, and re-forwards without
// a service — delivered late, with the strand ledger balancing.
func TestChurnStrandReroute(t *testing.T) {
	g := testGraph(t, 64, 8, 31, 0)
	relay, base := relayOf(t, g)
	out := oneShot(t, g, churnKnobs(
		failure.ChurnEvent{Time: 0.5, Kind: failure.ChurnCrash, Node: relay}), ModeLive, 0)
	if out.Stranded == 0 {
		t.Fatal("arrival at the dead relay must strand")
	}
	if out.Stranded != out.StrandResumed+out.StrandDropped {
		t.Errorf("strand ledger broken: %d stranded != %d resumed + %d dropped",
			out.Stranded, out.StrandResumed, out.StrandDropped)
	}
	if !out.Results[0].Delivered {
		t.Error("the re-routed lookup should still deliver")
	}
	if len(out.Latencies) == 1 && len(base.Latencies) == 1 &&
		out.Latencies[0] <= base.Latencies[0] {
		t.Errorf("latency %g should exceed the churn-free %g by the probe window",
			out.Latencies[0], base.Latencies[0])
	}
}

// TestChurnTieAtHorizonBoundary pins the tie rule at a window-horizon
// instant (t=1 is a horizon multiple at unit capacity): churn ops run
// before message events at equal times, so a message popped at t sees
// the world as of t. A crash at exactly the arrival instant strands
// the arrival; a revival at exactly the arrival instant serves it.
func TestChurnTieAtHorizonBoundary(t *testing.T) {
	g := testGraph(t, 64, 8, 31, 0)
	relay, _ := relayOf(t, g)
	// Crash at exactly t=1, the arrival instant: the op wins the tie,
	// so the arrival finds the relay dead.
	out := oneShot(t, g, churnKnobs(
		failure.ChurnEvent{Time: 1, Kind: failure.ChurnCrash, Node: relay}), ModeLive, 0)
	if out.Stranded == 0 {
		t.Error("crash at the arrival instant must win the tie and strand the arrival")
	}

	// Crash early, revive at exactly t=1: the join op wins the tie, so
	// the arrival finds the relay alive again and nothing strands.
	g2 := testGraph(t, 64, 8, 31, 0)
	out = oneShot(t, g2, churnKnobs(
		failure.ChurnEvent{Time: 0.25, Kind: failure.ChurnCrash, Node: relay},
		failure.ChurnEvent{Time: 1, Kind: failure.ChurnJoin, Node: relay}), ModeLive, 0)
	if out.Stranded != 0 {
		t.Errorf("revival at the arrival instant must win the tie; stranded = %d", out.Stranded)
	}
	if out.Crashes != 1 || out.Joins != 1 {
		t.Errorf("ledger: crashes=%d joins=%d, want 1/1", out.Crashes, out.Joins)
	}
}

// TestChurnPITWaiterExpires: a lookup parks as a PIT waiter at a node
// that then dies. The pending interest there can never multicast, so
// the waiter must expire on its own timeout — not leak — strand at the
// dead wait node, and re-forward to completion.
func TestChurnPITWaiterExpires(t *testing.T) {
	g := testGraph(t, 32, 6, 31, 0)
	cfg := baseConfig()
	cfg.Mode = ModeLivePIT
	cfg.PITTimeout = 4
	cfg.PITWaiters = 4
	// m0 plants an interest for the key at node 0 during [0,1); m1
	// arrives at node 0 at t=1.5, inside the interest lifetime, and
	// parks. Node 0 crashes at t=2 with the waiter still parked.
	cfg.Churn = churnKnobs(failure.ChurnEvent{Time: 2, Kind: failure.ChurnCrash, Node: 0})
	msgs := []Message{{From: 0, Key: 16}, {From: 0, Key: 16}}
	sched := Schedule{Initial: []Injection{{Msg: 0, Time: 0}, {Msg: 1, Time: 1.5}}}
	out, err := Run(g, msgs, sched, cfg, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if out.Suppressed != 1 {
		t.Fatalf("suppressed = %d, want exactly the parked waiter", out.Suppressed)
	}
	if out.PITExpired != 1 {
		t.Errorf("expired = %d, want 1: the orphaned waiter must time out, not leak", out.PITExpired)
	}
	if out.MulticastFanout != 0 {
		t.Errorf("fanout = %d, want 0: the interest at the dead node can never multicast",
			out.MulticastFanout)
	}
	if out.Stranded == 0 || out.Stranded != out.StrandResumed+out.StrandDropped {
		t.Errorf("strand ledger: %d stranded, %d resumed, %d dropped",
			out.Stranded, out.StrandResumed, out.StrandDropped)
	}
	for i, res := range out.Results {
		if !res.Delivered {
			t.Errorf("lookup %d did not complete delivered", i)
		}
	}
}

// TestChurnFlashCrowdRacesKill: a flash-crowd join scheduled at the
// same instant as a correlated regional kill. Generate orders the kill
// before the flash at the shared instant, so the flash draws from the
// post-kill dead pool (it may revive just-killed nodes), and the engine
// applies both deterministically.
func TestChurnFlashCrowdRacesKill(t *testing.T) {
	build := func() *graph.Graph {
		g := testGraph(t, 128, 8, 41, 0)
		for p := 100; p < 110; p++ {
			g.Fail(metric.Point(p))
		}
		return g
	}
	spec := failure.ChurnSpec{
		KillFrac: 0.2, KillAt: 3,
		FlashJoin: 6, FlashAt: 3,
		ProbeTimeout: 2, GossipInterval: 1, GossipFanout: 1,
	}
	run := func(g *graph.Graph) (*Outcome, []failure.ChurnEvent) {
		events, err := spec.Generate(g, rng.New(43))
		if err != nil {
			t.Fatal(err)
		}
		cfg := baseConfig()
		cfg.Mode = ModeLive
		cfg.Churn = ChurnConfig{Events: events, ProbeTimeout: spec.ProbeTimeout,
			GossipInterval: spec.GossipInterval, GossipFanout: spec.GossipFanout}
		msgs := testMessages(t, g, 60, 44)
		out, err := Run(g, msgs, periodicSchedule(len(msgs), 4), cfg, rng.New(45))
		if err != nil {
			t.Fatal(err)
		}
		requireExactIndex(t, g)
		return out, events
	}
	out1, events := run(build())
	// The schedule interleaves both same-instant groups, kills first.
	lastKill, firstFlash := -1, -1
	for i, ev := range events {
		if ev.Time != 3 {
			t.Fatalf("event %d at %g, want every event at the shared instant 3", i, ev.Time)
		}
		if ev.Kind == failure.ChurnCrash {
			lastKill = i
		} else if firstFlash == -1 {
			firstFlash = i
		}
	}
	if lastKill == -1 || firstFlash == -1 || lastKill > firstFlash {
		t.Fatalf("kill must precede flash at the shared instant (lastKill=%d firstFlash=%d)",
			lastKill, firstFlash)
	}
	if out1.Crashes == 0 || out1.Joins == 0 {
		t.Fatalf("ledger: crashes=%d joins=%d, want both positive", out1.Crashes, out1.Joins)
	}
	if out1.Stranded != out1.StrandResumed+out1.StrandDropped {
		t.Errorf("strand ledger broken: %d != %d + %d",
			out1.Stranded, out1.StrandResumed, out1.StrandDropped)
	}
	out2, _ := run(build())
	if !reflect.DeepEqual(out1, out2) {
		t.Error("identical flash-vs-kill runs diverged")
	}
}

// TestChurnGossipConvergesWithoutTraffic: with zero messages the run is
// pure membership dynamics — every rumor must resolve (converged or
// abandoned), gossip must charge sends, and rejoin must rebuild links.
func TestChurnGossipConvergesWithoutTraffic(t *testing.T) {
	g := testGraph(t, 64, 8, 51, 0)
	cfg := baseConfig()
	cfg.Mode = ModeLive
	cfg.Churn = ChurnConfig{
		Events: []failure.ChurnEvent{
			{Time: 1, Kind: failure.ChurnCrash, Node: 10},
			{Time: 2, Kind: failure.ChurnCrash, Node: 40},
			{Time: 10, Kind: failure.ChurnJoin, Node: 10},
		},
		ProbeTimeout: 1, GossipInterval: 1, GossipFanout: 2, Repair: true,
	}
	out, err := Run(g, nil, Schedule{}, cfg, rng.New(53))
	if err != nil {
		t.Fatal(err)
	}
	if out.Crashes != 2 || out.Joins != 1 {
		t.Fatalf("ledger: crashes=%d joins=%d, want 2/1", out.Crashes, out.Joins)
	}
	if got := out.RumorsConverged + out.RumorsAbandoned; got != 3 {
		t.Errorf("rumors resolved = %d, want every event's rumor (3)", got)
	}
	if out.GossipSends == 0 {
		t.Error("gossip dissemination charged no sends")
	}
	if out.MembershipLag <= 0 {
		t.Errorf("membership lag %g must be positive", out.MembershipLag)
	}
	if out.LinksRebuilt == 0 {
		t.Error("repair and rejoin rebuilt no links")
	}
	if !g.Alive(10) || g.Alive(40) {
		t.Error("final graph liveness does not match the schedule")
	}
	if g.AliveCount() != 63 {
		t.Errorf("alive count %d, want 63", g.AliveCount())
	}
	requireExactIndex(t, g)
}

// TestChurnStaggeredCrashRumor: crash B is born while crash A's gossip
// rounds are still running. B must converge after its own detection,
// not be abandoned by a round that runs before it has any knower.
func TestChurnStaggeredCrashRumor(t *testing.T) {
	g := testGraph(t, 64, 8, 31, 0)
	cfg := baseConfig()
	cfg.Mode = ModeLive
	cfg.Churn = churnKnobs(
		failure.ChurnEvent{Time: 0, Kind: failure.ChurnCrash, Node: metric.Point(10)},
		failure.ChurnEvent{Time: 3.5, Kind: failure.ChurnCrash, Node: metric.Point(40)},
	)
	out, err := Run(g, []Message{{From: 0, Key: 32}},
		Schedule{Initial: []Injection{{Msg: 0, Time: 0}}}, cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if out.RumorsAbandoned != 0 {
		t.Errorf("second rumor abandoned before detection: converged=%d abandoned=%d",
			out.RumorsConverged, out.RumorsAbandoned)
	}
	requireExactIndex(t, g)
}

// TestChurnDeadKeyBornFailed: every replica of a key dead at injection
// is a failed search (empty path, completed at injection), not a
// configuration error.
func TestChurnDeadKeyBornFailed(t *testing.T) {
	g := testGraph(t, 64, 8, 61, 0)
	out := oneShot(t, g, churnKnobs(
		failure.ChurnEvent{Time: 0.5, Kind: failure.ChurnCrash, Node: 32}), ModeLive, 1)
	if out.Results[0].Delivered {
		t.Error("lookup for an all-dead key must fail, not deliver")
	}
	if out.Injected != 1 {
		t.Errorf("injected = %d, want 1", out.Injected)
	}
	if len(out.Latencies) != 0 {
		t.Errorf("a born-failed lookup contributes no latency, got %v", out.Latencies)
	}
}

// TestChurnDeadOriginReattach: a lookup whose source died before its
// injection enters at the nearest alive node instead.
func TestChurnDeadOriginReattach(t *testing.T) {
	g := testGraph(t, 64, 8, 71, 0)
	out := oneShot(t, g, churnKnobs(
		failure.ChurnEvent{Time: 0.5, Kind: failure.ChurnCrash, Node: 0}), ModeLive, 1)
	if out.Reattached != 1 {
		t.Fatalf("reattached = %d, want 1", out.Reattached)
	}
	if !out.Results[0].Delivered {
		t.Error("the reattached lookup should deliver")
	}
	if p := out.Results[0].Path[0]; p == 0 || !g.Alive(p) {
		t.Errorf("walk starts at %d, want a live stand-in for the dead origin", p)
	}
}

// TestChurnExtinctNetwork: churn that kills every node makes later
// injection impossible — a reported error, not a hang or panic.
func TestChurnExtinctNetwork(t *testing.T) {
	g := testGraph(t, 16, 2, 81, 0)
	events := make([]failure.ChurnEvent, 16)
	for i := range events {
		events[i] = failure.ChurnEvent{Time: 0.5, Kind: failure.ChurnCrash, Node: metric.Point(i)}
	}
	cfg := baseConfig()
	cfg.Mode = ModeLive
	cfg.Churn = churnKnobs(events...)
	_, err := Run(g, []Message{{From: 0, Key: 8}},
		Schedule{Initial: []Injection{{Msg: 0, Time: 1}}}, cfg, rng.New(83))
	if err == nil || !strings.Contains(err.Error(), "extinguished") {
		t.Fatalf("err = %v, want the extinct-network error", err)
	}
}
