package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/failure"
	"repro/internal/metric"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// shardCounts is the acceptance matrix: 1 is the one-owner run,
// 2 and 4 are even splits, 7 leaves shards of unequal width and
// exercises the partition rounding.
var shardCounts = []int{1, 2, 4, 7}

// TestShardOfPartition pins the partition's shape: every node owned by
// exactly one shard, ownership monotone in the point order (so regions
// are contiguous), and every shard nonempty whenever shards ≤ size.
func TestShardOfPartition(t *testing.T) {
	for _, size := range []int{1, 2, 7, 64, 1000} {
		for shards := 1; shards <= size && shards <= 9; shards++ {
			seen := make([]int, shards)
			prev := 0
			for p := 0; p < size; p++ {
				s := shardOf(metric.Point(p), shards, size)
				if s < 0 || s >= shards {
					t.Fatalf("size=%d shards=%d: shardOf(%d)=%d out of range", size, shards, p, s)
				}
				if s < prev {
					t.Fatalf("size=%d shards=%d: ownership not monotone at %d", size, shards, p)
				}
				prev = s
				seen[s]++
			}
			for s, n := range seen {
				if n == 0 {
					t.Fatalf("size=%d shards=%d: shard %d owns no nodes", size, shards, s)
				}
			}
		}
	}
}

// runShardScenario runs one live scenario at a given shard count and
// asserts the run's reference-free ledgers. A recorder rides along as
// the independent completion counter (it only observes; regress pins
// outcomes byte-identical with it on or off).
func runShardScenario(t *testing.T, cfg Config, sched Schedule, shards int) (*Outcome, error) {
	t.Helper()
	g := testGraph(t, 512, 9, 3, 5)
	msgs := testMessages(t, g, 300, 4)
	cfg.Shards = shards
	cfg.Telemetry = telemetry.New(telemetry.Options{})
	out, err := Run(g, msgs, sched, cfg, rng.New(9))
	if err != nil {
		return nil, err
	}
	completed := 0
	for _, w := range cfg.Telemetry.Runs()[0].Windows() {
		completed += w.Completions
	}
	if err := out.CheckLedgers(); err != nil {
		t.Errorf("shards=%d: %v", shards, err)
	}
	if completed != len(msgs) {
		t.Errorf("shards=%d: %d messages, the recorder saw %d complete", shards, len(msgs), completed)
	}
	return out, nil
}

// TestShardCountInvariance is the tentpole acceptance property at the
// engine level: live outcomes are byte-identical for every shard
// count — k owners in windows against one owner in event order —
// across the eligible configurations (plain live, live with static
// replication, live+aggregate open-loop, closed-loop live and PIT) and,
// trivially, across every documented one-owner fallback. reason is the
// plan reason the case must resolve to at Shards > 1, so each reason is
// pinned to a configuration that actually runs.
func TestShardCountInvariance(t *testing.T) {
	closed := func(n, clients int, think float64) Schedule {
		initial := make([]Injection, clients)
		for i := range initial {
			initial[i] = Injection{Msg: i, Time: float64(i) * 0.01}
		}
		return Schedule{
			Initial: initial,
			Completed: func(msg int, at float64) (Injection, bool) {
				next := msg + clients
				if next >= n {
					return Injection{}, false
				}
				return Injection{Msg: next, Time: at + think}, true
			},
		}
	}
	live := func(mode Mode, tweak func(t *testing.T, cfg *Config)) func(t *testing.T) Config {
		return func(t *testing.T) Config {
			cfg := baseConfig()
			cfg.Mode = mode
			if tweak != nil {
				tweak(t, &cfg)
			}
			return cfg
		}
	}
	cases := []struct {
		name   string
		cfg    func(t *testing.T) Config
		sched  Schedule
		reason string
	}{
		{"live", live(ModeLive, nil), periodicSchedule(300, 8), PlanReasonSharded},
		{"live+replicas", live(ModeLive, func(t *testing.T, cfg *Config) {
			cfg.Placement = newTestPlacement(t, testGraph(t, 512, 9, 3, 5), 4, 77)
		}), periodicSchedule(300, 8), PlanReasonSharded},
		{"live+aggregate", live(ModeLiveAggregate, nil), periodicSchedule(300, 32), PlanReasonSharded},
		{"live+closedloop", live(ModeLive, nil), closed(300, 16, 0.5), PlanReasonSharded},
		{"live+closedloop+zerothink", live(ModeLive, nil), closed(300, 16, 0), PlanReasonSharded},
		{"pit+closedloop", live(ModeLivePIT, func(t *testing.T, cfg *Config) {
			cfg.PITTimeout, cfg.PITWaiters = 8, 4
		}), closed(300, 16, 0.5), PlanReasonSharded},
		// One-owner fallbacks: invariance must hold trivially.
		{"fallback:depth-penalty", live(ModeLive, func(t *testing.T, cfg *Config) {
			cfg.DepthPenalty = 1
		}), periodicSchedule(300, 8), PlanReasonCongestion},
		{"fallback:penalty", live(ModeLive, func(t *testing.T, cfg *Config) {
			cfg.Penalty = 2
		}), periodicSchedule(300, 8), PlanReasonCongestion},
		{"fallback:route-congestion", live(ModeLive, func(t *testing.T, cfg *Config) {
			cfg.Route.Congestion = func(q metric.Point) float64 { return float64(q % 3) }
			cfg.Route.CongestionWeight = 1
		}), periodicSchedule(300, 8), PlanReasonCongestion},
		{"fallback:cache-on-path", live(ModeLive, func(t *testing.T, cfg *Config) {
			p, err := replica.NewPlacement(testGraph(t, 512, 9, 3, 5).Space(),
				replica.Options{K: 2, CacheThreshold: 2, CacheCopies: 2, CacheDecay: true}, 77)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Placement = p
		}), periodicSchedule(300, 8), PlanReasonCaching},
		{"fallback:aggregate+closedloop", live(ModeLiveAggregate, nil), closed(300, 16, 0.5),
			PlanReasonClosedLoopAggregate},
		{"fallback:churn-fast-probe", live(ModeLive, func(t *testing.T, cfg *Config) {
			// An arc dies mid-traffic (a hop in flight toward it strands)
			// and a node that was dead from the start joins.
			var events []failure.ChurnEvent
			for p := metric.Point(96); p < 128; p++ {
				if p%5 != 0 {
					events = append(events, failure.ChurnEvent{Time: 4, Kind: failure.ChurnCrash, Node: p})
				}
			}
			events = append(events, failure.ChurnEvent{Time: 15, Kind: failure.ChurnJoin, Node: 10})
			cfg.Churn = ChurnConfig{Events: events, ProbeTimeout: 0.5, GossipInterval: 1, GossipFanout: 2, Repair: true}
		}), periodicSchedule(300, 8), PlanReasonChurn},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base, err := runShardScenario(t, tc.cfg(t), tc.sched, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range shardCounts[1:] {
				// Placements memoize internally and churn edits the graph;
				// rebuild the inputs so each shard count sees them fresh.
				got, err := runShardScenario(t, tc.cfg(t), tc.sched, shards)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if got.PlanReason != tc.reason {
					t.Errorf("shards=%d resolved to %q, want %q", shards, got.PlanReason, tc.reason)
				}
				// The resolved plan legitimately differs across shard
				// counts; the invariance contract covers the simulation.
				got.Plan, got.PlanReason = base.Plan, base.PlanReason
				if !reflect.DeepEqual(base, got) {
					t.Errorf("shards=%d diverged from the one-owner run", shards)
				}
			}
		})
	}
}

// TestShardedErrorMatchesSequential pins the failure contract: a
// walker-creation error (dead origin) aborts the run with the same
// error at every shard count — both drivers admit injections in the
// same (time, msg) order.
func TestShardedErrorMatchesSequential(t *testing.T) {
	g := testGraph(t, 512, 9, 3, 5)
	msgs := testMessages(t, g, 64, 4)
	msgs[17].From = 5 // failEvery=5 kills node 5: injection 17 must error
	cfg := baseConfig()
	cfg.Mode = ModeLive
	var want error
	for _, shards := range shardCounts {
		cfg.Shards = shards
		_, err := Run(g, msgs, periodicSchedule(len(msgs), 8), cfg, rng.New(9))
		if err == nil {
			t.Fatalf("shards=%d: dead origin accepted", shards)
		}
		if shards == 1 {
			want = err
		} else if err.Error() != want.Error() {
			t.Errorf("shards=%d error %q, want %q", shards, err, want)
		}
	}
}

// TestShardPanicBecomesRunError pins the crash contract of the parallel
// drain: a handler that panics — here on a walker lost after admission
// — ends the run with an error naming the owner and the window, on the
// goroutine drains and on the inline first shard alike. Unrecovered, a
// panic on a bare goroutine takes the whole process down past every
// caller of Run.
func TestShardPanicBecomesRunError(t *testing.T) {
	for _, victim := range []int{0, 1} {
		g := testGraph(t, 512, 9, 3, 5)
		msgs := testMessages(t, g, 64, 4)
		cfg := baseConfig()
		cfg.Mode = ModeLive
		cfg.Shards = 2
		r := newRunner(g, msgs, periodicSchedule(len(msgs), 8), cfg, rng.New(9))
		if r.out.Plan != PlanLiveSharded {
			t.Fatalf("plan %v, want the sharded loop", r.out.Plan)
		}
		// Admit every injection up front (runWindows admits them window
		// by window), then drop one in-flight walker the victim owns.
		lost := false
		for r.pend.Len() > 0 {
			a, ok := r.admit(r.pend.Pop())
			if !ok {
				continue
			}
			r.pushEvent(a)
			if !lost && r.shards.owner(r.pos[a.msg]).id == victim {
				r.walkers[a.msg], lost = nil, true
			}
		}
		if r.err != nil || !lost {
			t.Fatalf("set-up failed: err=%v lost=%v", r.err, lost)
		}
		r.runWindows()
		want := fmt.Sprintf("shard %d panicked draining the window below t=", victim)
		if r.err == nil || !strings.Contains(r.err.Error(), want) {
			t.Errorf("victim shard %d: err = %v, want it to contain %q", victim, r.err, want)
		}
	}
}
