package engine

import (
	"testing"

	"repro/internal/metric"
	"repro/internal/rng"
)

// newPathRunner builds a snapshot-mode runner on a bare ring of `nodes`
// whose messages replay hand-written forwarder paths — the batch
// router's output, written down — through the one loop at the given
// service time. delivered[i] is message i's search verdict.
func newPathRunner(tb testing.TB, nodes int, serviceTime float64, paths [][]metric.Point, delivered []bool, sched Schedule) *runner {
	tb.Helper()
	g := testGraph(tb, nodes, 1, 23, 0)
	cfg := baseConfig()
	cfg.Capacity = 1 / serviceTime
	r := new(runner).reset(g, make([]Message, len(paths)), sched, cfg, rng.New(1))
	if r.err != nil {
		tb.Fatal(r.err)
	}
	copy(r.snap.paths, paths)
	for i, d := range delivered {
		r.out.Results[i].Delivered = d
	}
	return r
}

// replayPaths admits every up-front injection of a path runner and
// drains the loop, as runSnapshot does once its last batch has routed.
func replayPaths(t *testing.T, nodes int, serviceTime float64, paths [][]metric.Point, delivered []bool, sched Schedule) *Outcome {
	t.Helper()
	r := newPathRunner(t, nodes, serviceTime, paths, delivered, sched)
	r.admitRouted(0, len(paths))
	for r.err == nil && r.step() {
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	r.shards.fold(r.out)
	return r.out
}

// timed is the open-loop schedule injecting message i at times[i].
func timed(times ...float64) Schedule {
	initial := make([]Injection, len(times))
	for i, at := range times {
		initial[i] = Injection{Msg: i, Time: at}
	}
	return Schedule{Initial: initial}
}

func TestReplaySingleMessage(t *testing.T) {
	// One message over three nodes at capacity 1: one tick of service
	// per node, no queueing, latency 3.
	out := replayPaths(t, 4, 1, [][]metric.Point{{0, 1, 2}}, []bool{true}, timed(0))
	if out.Services != 3 {
		t.Errorf("services = %d, want 3", out.Services)
	}
	for p, want := range []int{1, 1, 1, 0} {
		if out.Loads[p] != want {
			t.Errorf("loads[%d] = %d, want %d", p, out.Loads[p], want)
		}
	}
	if out.MaxQueueDepth != 1 {
		t.Errorf("maxQueueDepth = %d, want 1", out.MaxQueueDepth)
	}
	if len(out.Latencies) != 1 || out.Latencies[0] != 3 {
		t.Errorf("latencies = %v, want [3]", out.Latencies)
	}
	if out.Makespan != 3 {
		t.Errorf("makespan = %v, want 3", out.Makespan)
	}
	if out.Injected != 1 || out.LastInject != 0 {
		t.Errorf("injected = %d at %v, want 1 at 0", out.Injected, out.LastInject)
	}
}

func TestReplayContention(t *testing.T) {
	// Two messages injected simultaneously through the same single
	// node: FIFO order by message id, the second waits a full service.
	out := replayPaths(t, 8, 2, [][]metric.Point{{5}, {5}}, []bool{true, true}, timed(0, 0))
	if out.Loads[5] != 2 {
		t.Errorf("loads[5] = %d, want 2", out.Loads[5])
	}
	if out.MaxQueueDepth != 2 {
		t.Errorf("maxQueueDepth = %d, want 2", out.MaxQueueDepth)
	}
	want := []float64{2, 4}
	if len(out.Latencies) != 2 || out.Latencies[0] != want[0] || out.Latencies[1] != want[1] {
		t.Errorf("latencies = %v, want %v", out.Latencies, want)
	}
}

func TestReplayFailedMessageChargesLoad(t *testing.T) {
	out := replayPaths(t, 4, 1, [][]metric.Point{{1, 2}}, []bool{false}, timed(0))
	if out.Loads[1] != 1 || out.Loads[2] != 1 {
		t.Errorf("failed message should still be charged: %v", out.Loads)
	}
	if len(out.Latencies) != 0 {
		t.Errorf("failed message must not contribute latency: %v", out.Latencies)
	}
}

func TestReplayIdleServerDrains(t *testing.T) {
	// Two messages far apart in time never queue behind each other.
	out := replayPaths(t, 4, 1, [][]metric.Point{{3}, {3}}, []bool{true, true}, timed(0, 100))
	if out.MaxQueueDepth != 1 {
		t.Errorf("maxQueueDepth = %d, want 1", out.MaxQueueDepth)
	}
	if out.Latencies[1] != 1 {
		t.Errorf("second latency = %v, want 1 (no waiting)", out.Latencies[1])
	}
}

func TestReplayEmpty(t *testing.T) {
	// No messages at all: the replay must return a zero outcome, not
	// panic or fabricate services.
	out := replayPaths(t, 4, 1, nil, nil, Schedule{})
	if out.Services != 0 || out.MaxQueueDepth != 0 || out.Injected != 0 {
		t.Errorf("empty replay produced work: %+v", out)
	}
	if out.Makespan != 0 || len(out.Latencies) != 0 {
		t.Errorf("empty replay produced time: %+v", out)
	}
	// Messages whose searches produced no path (an exhausted graph)
	// occupy no queues but still count as injected.
	out = replayPaths(t, 4, 1, [][]metric.Point{nil, nil}, nil, timed(2, 5))
	if out.Services != 0 || out.Injected != 2 || out.LastInject != 5 {
		t.Errorf("path-less messages: services=%d injected=%d last=%v",
			out.Services, out.Injected, out.LastInject)
	}
}

func TestDepthAtBoundaries(t *testing.T) {
	// depthAt's convention: a service finishing exactly at t has left;
	// one arriving exactly at t is in the system; the count never goes
	// negative; and a drained queue refills from its next arrival. Every
	// state is built through serve at service time 1, so the queue only
	// ever holds what a run can put there.
	var q nodeQueue
	for i, tc := range []struct {
		at            float64
		start, finish float64
		depth         int
	}{
		{1, 1, 2, 1},   // idle server: served on arrival
		{1, 2, 3, 2},   // tied arrival waits for the first
		{1.5, 3, 4, 3}, // arrives mid-service, behind both
		{3, 4, 5, 2},   // finishes 2 and 3 have left at 3; 4 is in service
	} {
		start, finish, depth := q.serve(tc.at, 1)
		if start != tc.start || finish != tc.finish || depth != tc.depth {
			t.Errorf("serve %d at %v: (%v, %v, %d), want (%v, %v, %d)",
				i, tc.at, start, finish, depth, tc.start, tc.finish, tc.depth)
		}
	}
	for _, tc := range []struct {
		t    float64
		want int
	}{
		{3.999, 2},
		{4, 1}, // finish == t drains
		{4.5, 1},
		{5, 0}, // the last finish == t leaves the server idle
		{100, 0},
	} {
		if got := q.depthAt(tc.t, 1); got != tc.want {
			t.Errorf("depthAt(%v) = %d, want %d", tc.t, got, tc.want)
		}
	}
	if q.n != 0 {
		t.Errorf("fully drained queue should be empty: %+v", q)
	}
	// An arrival exactly at the probe instant counts, and a drained
	// queue refills in FIFO order: one server, back to back.
	if _, _, depth := q.serve(200, 1); depth != 1 || q.depthAt(200, 1) != 1 {
		t.Errorf("arrival at 200: depth %d, depthAt(200) = %d, want 1 and 1", depth, q.depthAt(200, 1))
	}
	for i := 0; i < 5; i++ {
		q.serve(200, 1) // finishes 202, …, 206
	}
	if got := q.depthAt(203, 1); got != 3 || q.head != 204 {
		t.Errorf("after 6 back-to-back services, depthAt(203) = %d with head %v, want 3 with head 204", got, q.head)
	}
}

func TestReplayProbeBoundaries(t *testing.T) {
	// Message 0 is served on node 1 over [0,1), then node 2 over [1,2);
	// message 1, path-less, is the next batch, injected at the probe
	// instant. The probe convention is depthAt's: in system when
	// arrival ≤ probe < finish.
	for _, tc := range []struct {
		probe float64
		want  []int
	}{
		{0, []int{0, 1, 0, 0}},   // arrival instant counts
		{0.5, []int{0, 1, 0, 0}}, // mid-service
		{1, []int{0, 0, 1, 0}},   // finish instant has left node 1, entered node 2
		{2, []int{0, 0, 0, 0}},   // everything drained
	} {
		r := newPathRunner(t, 4, 1, [][]metric.Point{{1, 2}, nil}, []bool{true, false}, timed(0, tc.probe))
		r.admitRouted(0, 1)
		r.depthsAtBatch(1)
		if r.err != nil {
			t.Fatal(r.err)
		}
		for p, want := range tc.want {
			if r.snap.depth[p] != want {
				t.Errorf("probe %v: depth[%d] = %d, want %d", tc.probe, p, r.snap.depth[p], want)
			}
		}
	}
}

func TestReplayClosedLoopFeedback(t *testing.T) {
	// Two messages chained by a completion hook: message 1 may only
	// inject once message 0 completes, plus 3 ticks of think time.
	chained := Schedule{
		Initial: []Injection{{Msg: 0, Time: 0}},
		Completed: func(m int, at float64) (Injection, bool) {
			if m == 0 {
				return Injection{Msg: 1, Time: at + 3}, true
			}
			return Injection{}, false
		},
	}
	out := replayPaths(t, 4, 1, [][]metric.Point{{0, 1}, {0}}, []bool{true, true}, chained)
	if out.Injected != 2 {
		t.Fatalf("injected = %d, want 2", out.Injected)
	}
	// Message 0 completes at 2, message 1 injects at 5 and finishes at 6.
	if out.LastInject != 5 {
		t.Errorf("lastInject = %v, want 5", out.LastInject)
	}
	if out.Makespan != 6 {
		t.Errorf("makespan = %v, want 6", out.Makespan)
	}
	if out.MaxQueueDepth != 1 {
		t.Errorf("maxQueueDepth = %d, want 1 (feedback serializes the messages)", out.MaxQueueDepth)
	}
	// A path-less head message must still unlock its successor, at its
	// own injection instant.
	chained.Initial[0].Time = 7
	out = replayPaths(t, 4, 1, [][]metric.Point{nil, {2}}, []bool{false, true}, chained)
	if out.Injected != 2 || out.LastInject != 10 || out.Services != 1 {
		t.Errorf("path-less chain: injected=%d last=%v services=%d, want 2/10/1",
			out.Injected, out.LastInject, out.Services)
	}
	// The closed-loop depth probe runs the routed prefix on a scratch
	// runner and reads it at the prefix's last injection: message 1's,
	// at 5, in service on node 0 until 6.
	chained.Initial[0].Time = 0
	r := newPathRunner(t, 4, 1, [][]metric.Point{{0, 1}, {0}, {3}}, []bool{true, true, true}, chained)
	r.depthsAtBatch(2)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if got := r.snap.depth; got[0] != 1 || got[1] != 0 || got[3] != 0 {
		t.Errorf("closed-loop probe depths = %v, want [1 0 0 0]", got)
	}
	if r.out.Injected != 0 {
		t.Errorf("the scratch probe injected %d into the run itself", r.out.Injected)
	}
}
