package engine

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
)

// pitConfig is baseConfig in ModeLivePIT with the default-ish knobs
// the load package would resolve.
func pitConfig() Config {
	cfg := baseConfig()
	cfg.Mode = ModeLivePIT
	cfg.PITTimeout = 64
	cfg.PITWaiters = 16
	return cfg
}

// checkPITInvariants pins the counters' conservation story: every
// message completes exactly once, every delivered message contributes
// one latency, and every suppression ends exactly once — released by
// a multicast or expired by its timeout.
func checkPITInvariants(t *testing.T, out *Outcome, n int) {
	t.Helper()
	if len(out.Results) != n {
		t.Fatalf("results %d, want %d", len(out.Results), n)
	}
	delivered := 0
	for i, res := range out.Results {
		if res.Delivered {
			delivered++
		} else if len(res.Path) == 0 {
			t.Fatalf("message %d has no result", i)
		}
	}
	// From-key pairs are always distinct in these scenarios, so no
	// lookup is born delivered: every delivered completion waited in at
	// least one queue and must record a latency.
	if len(out.Latencies) != delivered {
		t.Fatalf("latencies %d != delivered %d", len(out.Latencies), delivered)
	}
	// Every suppression ends exactly once: released by a multicast or
	// expired by its own timeout.
	if out.Suppressed != out.MulticastFanout+out.PITExpired {
		t.Fatalf("suppression imbalance: %d suppressed != %d released + %d expired",
			out.Suppressed, out.MulticastFanout, out.PITExpired)
	}
}

// TestPITCollapsesFlood is the tentpole behavior at the engine level:
// under a same-key flood the pending-interest tables suppress most of
// the redundant forwarding, answers multicast to the waiters, and the
// network does far less queueing work than plain live mode while still
// answering every lookup.
func TestPITCollapsesFlood(t *testing.T) {
	g := testGraph(t, 512, 9, 3, 0)
	src := rng.New(41)
	victim, _ := g.RandomAlive(src)
	msgs := make([]Message, 400)
	for i := range msgs {
		from, _ := g.RandomAlive(src)
		for from == victim {
			from, _ = g.RandomAlive(src)
		}
		msgs[i] = Message{From: from, Key: victim}
	}
	sched := periodicSchedule(len(msgs), 16)
	cfg := baseConfig()
	cfg.Mode = ModeLive
	plain, err := Run(g, msgs, sched, cfg, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	pit, err := Run(g, msgs, sched, pitConfig(), rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	checkPITInvariants(t, pit, len(msgs))
	if pit.Suppressed == 0 {
		t.Fatal("flood suppressed nothing")
	}
	if pit.MulticastFanout == 0 {
		t.Fatal("answers released no waiters")
	}
	for i, res := range pit.Results {
		if !res.Delivered {
			t.Fatalf("message %d not answered under PIT flood", i)
		}
	}
	// The request leg alone shrinks below plain live's services; the
	// answer leg roughly doubles the surviving traffic, so the real
	// claim is that suppression more than pays for the response path.
	if pit.Services >= plain.Services {
		t.Fatalf("PIT did not reduce flood work: %d services vs %d plain", pit.Services, plain.Services)
	}
	if pit.MaxQueueDepth > plain.MaxQueueDepth {
		t.Fatalf("PIT deepened the victim backlog: %d vs %d", pit.MaxQueueDepth, plain.MaxQueueDepth)
	}
}

// TestPITDistinctKeysNeverSuppress pins the suppression identity: only
// same-key lookups share a pending interest, so an all-distinct-keys
// run suppresses nothing and reports plain-live results plus the
// answer legs.
func TestPITDistinctKeysNeverSuppress(t *testing.T) {
	g := testGraph(t, 512, 9, 3, 5)
	msgs := testMessages(t, g, 200, 4)
	seen := map[metric.Point]bool{}
	distinct := msgs[:0]
	for _, m := range msgs {
		if !seen[m.Key] {
			seen[m.Key] = true
			distinct = append(distinct, m)
		}
	}
	msgs = distinct
	out, err := Run(g, msgs, periodicSchedule(len(msgs), 4), pitConfig(), rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	checkPITInvariants(t, out, len(msgs))
	if out.Suppressed != 0 || out.MulticastFanout != 0 || out.PITExpired != 0 {
		t.Fatalf("distinct keys produced PIT traffic: %d/%d/%d",
			out.Suppressed, out.MulticastFanout, out.PITExpired)
	}
}

// TestPITAnswerLatency pins the latency-accounting change: a lone
// lookup's completion is its answer receipt. The request leg services
// one node per hop (delivery is decided during the penultimate node's
// service); the answer leg services every path node — generation at
// the target through receipt at the origin — so through idle queues
// the PIT latency exceeds plain live's by exactly the path length.
func TestPITAnswerLatency(t *testing.T) {
	g := testGraph(t, 512, 9, 3, 0)
	msgs := testMessages(t, g, 1, 4)
	sched := periodicSchedule(1, 1)
	cfg := baseConfig()
	cfg.Mode = ModeLive
	live, err := Run(g, msgs, sched, cfg, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	pit, err := Run(g, msgs, sched, pitConfig(), rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Latencies) != 1 || len(pit.Latencies) != 1 {
		t.Fatalf("latency counts %d/%d", len(live.Latencies), len(pit.Latencies))
	}
	leg := len(live.Results[0].Path)
	if got, want := pit.Latencies[0], live.Latencies[0]+float64(leg); got != want {
		t.Fatalf("answer-receipt latency %g, want %g (request latency %g + answer leg %d)",
			got, want, live.Latencies[0], leg)
	}
	if pit.Services != live.Services+leg {
		t.Fatalf("lone lookup services %d, want %d (request leg %d + answer leg %d)",
			pit.Services, live.Services+leg, live.Services, leg)
	}
}

// TestPITStrandedCarrierExpires is the stranded-carrier edge case: a
// tight MaxHops strands most carriers mid-walk after they plant
// interests, so their waiters never see an answer, expire, and must
// re-forward to their own completions. Conservation and the
// suppression balance must survive carriers failing under waiters.
func TestPITStrandedCarrierExpires(t *testing.T) {
	g := testGraph(t, 512, 9, 3, 0)
	src := rng.New(43)
	victim, _ := g.RandomAlive(src)
	msgs := make([]Message, 120)
	for i := range msgs {
		from, _ := g.RandomAlive(src)
		for from == victim {
			from, _ = g.RandomAlive(src)
		}
		msgs[i] = Message{From: from, Key: victim}
	}
	cfg := pitConfig()
	cfg.Route.MaxHops = 3 // strand most carriers mid-walk
	cfg.PITTimeout = 4    // short: stranded waits expire quickly
	out, err := Run(g, msgs, periodicSchedule(len(msgs), 8), cfg, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	checkPITInvariants(t, out, len(msgs))
	failed := 0
	for _, res := range out.Results {
		if !res.Delivered {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("MaxHops=3 stranded no carriers")
	}
	if out.Suppressed == 0 || out.PITExpired == 0 {
		t.Fatalf("stranded flood produced no expiries: suppressed %d expired %d",
			out.Suppressed, out.PITExpired)
	}
}

// TestPITExpiryRacesAnswer fuzzes the timeout-versus-answer race: a
// PIT lifetime of exactly one service time makes timeout events tie
// answer services to the tick, so stale-timeout detection and the
// release bookkeeping are exercised on both sides of the (time, msg,
// idx) order. The invariants must hold at every timeout scale.
func TestPITExpiryRacesAnswer(t *testing.T) {
	g := testGraph(t, 512, 9, 3, 5)
	src := rng.New(47)
	victim, _ := g.RandomAlive(src)
	msgs := make([]Message, 300)
	for i := range msgs {
		from, _ := g.RandomAlive(src)
		for from == victim {
			from, _ = g.RandomAlive(src)
		}
		msgs[i] = Message{From: from, Key: victim}
	}
	for _, timeout := range []float64{0.5, 1, 1.5, 2, 3, 8} {
		cfg := pitConfig()
		cfg.PITTimeout = timeout
		out, err := Run(g, msgs, periodicSchedule(len(msgs), 16), cfg, rng.New(13))
		if err != nil {
			t.Fatalf("timeout=%g: %v", timeout, err)
		}
		checkPITInvariants(t, out, len(msgs))
		if out.Injected != len(msgs) {
			t.Fatalf("timeout=%g: injected %d of %d", timeout, out.Injected, len(msgs))
		}
	}
}

// TestPITWaiterBoundOverflows pins the waiter-list bound: with room
// for a single waiter per interest the flood still conserves, and
// suppression shrinks against a roomy bound (overflowing arrivals
// forward normally).
func TestPITWaiterBoundOverflows(t *testing.T) {
	g := testGraph(t, 512, 9, 3, 0)
	src := rng.New(53)
	victim, _ := g.RandomAlive(src)
	msgs := make([]Message, 300)
	for i := range msgs {
		from, _ := g.RandomAlive(src)
		for from == victim {
			from, _ = g.RandomAlive(src)
		}
		msgs[i] = Message{From: from, Key: victim}
	}
	sched := periodicSchedule(len(msgs), 32)
	tight := pitConfig()
	tight.PITWaiters = 1
	bounded, err := Run(g, msgs, sched, tight, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	roomy := pitConfig()
	roomy.PITWaiters = 1 << 20
	free, err := Run(g, msgs, sched, roomy, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	checkPITInvariants(t, bounded, len(msgs))
	checkPITInvariants(t, free, len(msgs))
	if bounded.Suppressed == 0 {
		t.Fatal("bound 1 suppressed nothing")
	}
	if bounded.Suppressed >= free.Suppressed {
		t.Fatalf("bound 1 suppressed %d, unbounded %d — bound had no effect",
			bounded.Suppressed, free.Suppressed)
	}
}

// TestPITShardCountInvariance is the tentpole acceptance property for
// the response path: PIT outcomes — results, latencies, suppression,
// fanout, expiries, everything — are byte-identical at every shard
// count, under flood pressure, timeout races, waiter overflow, and a
// closed-loop schedule (which PIT, unlike aggregation, keeps sharded).
func TestPITShardCountInvariance(t *testing.T) {
	g := testGraph(t, 512, 9, 3, 5)
	src := rng.New(61)
	victim, _ := g.RandomAlive(src)
	flood := make([]Message, 300)
	for i := range flood {
		from, _ := g.RandomAlive(src)
		for from == victim {
			from, _ = g.RandomAlive(src)
		}
		flood[i] = Message{From: from, Key: victim}
	}
	mixed := testMessages(t, g, 300, 4)
	for i := range mixed {
		if i%3 == 0 {
			mixed[i].Key = victim
		}
	}
	closed := Schedule{
		Initial: func() []Injection {
			initial := make([]Injection, 16)
			for i := range initial {
				initial[i] = Injection{Msg: i, Time: float64(i) * 0.01}
			}
			return initial
		}(),
		Completed: func(msg int, at float64) (Injection, bool) {
			next := msg + 16
			if next >= 300 {
				return Injection{}, false
			}
			return Injection{Msg: next, Time: at + 0.5}, true
		},
	}
	cases := []struct {
		name  string
		cfg   Config
		msgs  []Message
		sched Schedule
	}{
		{"flood", pitConfig(), flood, periodicSchedule(300, 16)},
		{"flood+shorttimeout", func() Config {
			cfg := pitConfig()
			cfg.PITTimeout = 1 // ties against answer services every tick
			return cfg
		}(), flood, periodicSchedule(300, 16)},
		{"flood+tightwaiters", func() Config {
			cfg := pitConfig()
			cfg.PITWaiters = 2
			return cfg
		}(), flood, periodicSchedule(300, 32)},
		{"mixed+closedloop", pitConfig(), mixed, closed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var base *Outcome
			for _, shards := range shardCounts {
				cfg := tc.cfg
				cfg.Shards = shards
				got, err := Run(g, tc.msgs, tc.sched, cfg, rng.New(9))
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if base == nil {
					base = got
					if got.Suppressed == 0 {
						t.Fatal("scenario exercises no suppression")
					}
					continue
				}
				got.Plan, got.PlanReason = base.Plan, base.PlanReason
				if !reflect.DeepEqual(base, got) {
					t.Errorf("shards=%d diverged from the sequential reference", shards)
				}
			}
		})
	}
}

// TestPITClosedLoopStaysSharded pins PIT's plan advantage over
// aggregation: a closed-loop schedule keeps the sharded plan (every
// PIT completion lands at or past the window horizon), where
// live+aggregate falls back to the sequential loop.
func TestPITClosedLoopStaysSharded(t *testing.T) {
	sched := Schedule{
		Initial:   []Injection{{Msg: 0, Time: 0}},
		Completed: func(msg int, at float64) (Injection, bool) { return Injection{}, false },
	}
	cfg := pitConfig()
	cfg.Shards = 4
	if plan, reason := cfg.Plan(sched); plan != PlanLiveSharded || reason != PlanReasonSharded {
		t.Fatalf("PIT closed loop resolved to %v (%q)", plan, reason)
	}
	agg := baseConfig()
	agg.Mode = ModeLiveAggregate
	agg.Shards = 4
	if plan, reason := agg.Plan(sched); plan != PlanLiveSequential || reason != PlanReasonClosedLoopAggregate {
		t.Fatalf("aggregate closed loop resolved to %v (%q)", plan, reason)
	}
}

// runKept is Run for a live configuration, handing back the runner so a
// test can read the tables the run leaves behind. eachStep, if not nil,
// is called after every step of a one-owner run.
func runKept(t *testing.T, g *graph.Graph, msgs []Message, sched Schedule, cfg Config, eachStep func(*runner)) *runner {
	t.Helper()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	r := newRunner(g, msgs, sched, cfg, rng.New(9))
	if r.out.Plan == PlanLiveSharded {
		r.runWindows()
	} else {
		for r.err == nil && r.step() {
			if eachStep != nil {
				eachStep(r)
			}
		}
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	r.shards.fold(r.out)
	return r
}

// TestPITLookupParksAtMostOnce holds the run's own ledger to the claim
// pitMsgState.parked rests on. Every park ends once, by expiry or by
// release, and each ending marks its lookup for good: an expiry sets
// expiredOnce, a release sets answering on a lookup whose own walk never
// finished. So the parks of a run number at least the lookups so marked,
// and exactly that many only if no lookup's wait ended twice — that is,
// if none parked twice. PIT × churn, one owner and two, flood and skew.
func TestPITLookupParksAtMostOnce(t *testing.T) {
	for _, flood := range []bool{true, false} {
		for _, shards := range []int{1, 2} {
			g, msgs, sched, cfg := churnPITScenario(t, 1<<12, flood)
			cfg.Shards = shards
			if flood {
				cfg.PITTimeout = 8 // the victim's queue outlasts it: expiries, then unsuppressed re-forwards
			}
			r := runKept(t, g, msgs, sched, cfg, nil)
			out, p := r.out, r.pitMsgs
			expired, released := 0, 0
			for m := range msgs {
				if p.parked[m] {
					t.Fatalf("flood=%v shards=%d: lookup %d is still parked after the run", flood, shards, m)
				}
				wasReleased := p.answering[m] && !r.walkers[m].Done()
				if p.expiredOnce[m] && wasReleased {
					t.Fatalf("flood=%v shards=%d: lookup %d both expired and was released", flood, shards, m)
				}
				if p.expiredOnce[m] {
					expired++
				}
				if wasReleased {
					released++
				}
			}
			if out.Suppressed == 0 || out.Crashes == 0 || (flood && out.PITExpired == 0) {
				t.Fatalf("flood=%v shards=%d: suppressed %d, expired %d, crashes %d: the scenario is vacuous",
					flood, shards, out.Suppressed, out.PITExpired, out.Crashes)
			}
			if out.PITExpired != expired || out.MulticastFanout != released || out.Suppressed != expired+released {
				t.Errorf("flood=%v shards=%d: %d parks, %d expiries, %d releases, but %d lookups expired and %d were released: some lookup parked twice",
					flood, shards, out.Suppressed, out.PITExpired, out.MulticastFanout, expired, released)
			}
		}
	}
}

// TestPITSlabRecycles pins the interest slab's accounting: every slot
// is either pending (in the map) or free, and the slab is as long as
// the owner's peak of concurrently pending interests — it grows only
// when every slot is pending — which is a small fraction of the
// interests a run plants (one per request service, minus refreshes).
func TestPITSlabRecycles(t *testing.T) {
	for _, shards := range []int{1, 2} {
		g, msgs, sched, cfg := churnPITScenario(t, 1<<12, false)
		cfg.Shards = shards
		peak := 0
		r := runKept(t, g, msgs, sched, cfg, func(r *runner) {
			peak = max(peak, len(r.shards.shards[0].pit))
		})
		slots := 0
		for _, sh := range r.shards.shards {
			if len(sh.pitSlab) != len(sh.pitFree)+len(sh.pit) {
				t.Errorf("shards=%d owner %d: %d slots, %d free + %d pending", shards, sh.id, len(sh.pitSlab), len(sh.pitFree), len(sh.pit))
			}
			seen := make(map[int32]bool)
			for _, slot := range sh.pitFree {
				seen[slot] = true
			}
			for _, slot := range sh.pit {
				seen[slot] = true
			}
			if len(seen) != len(sh.pitSlab) {
				t.Errorf("shards=%d owner %d: %d distinct slots pending or free, of %d", shards, sh.id, len(seen), len(sh.pitSlab))
			}
			slots += len(sh.pitSlab)
		}
		if shards == 1 && slots != peak {
			t.Errorf("one owner: %d slots, but at most %d interests were ever pending at once", slots, peak)
		}
		if slots == 0 || slots*10 > r.out.Services {
			t.Errorf("shards=%d: %d slots for %d services; the slab is not recycling", shards, slots, r.out.Services)
		}
	}
}
