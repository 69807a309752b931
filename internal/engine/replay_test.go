package engine

import (
	"testing"

	"repro/internal/metric"
)

// pretimed turns the messages' pre-set inject fields into the up-front
// schedule replay expects — the open-loop shape of every test that
// does not exercise the completion feedback.
func pretimed(msgs []replayMsg) []Injection {
	out := make([]Injection, len(msgs))
	for i, m := range msgs {
		out[i] = Injection{Msg: i, Time: m.inject}
	}
	return out
}

func TestReplaySingleMessage(t *testing.T) {
	// One message over three nodes at capacity 1: one tick of service
	// per node, no queueing, latency 3.
	msgs := []replayMsg{{
		inject:    0,
		path:      []metric.Point{0, 1, 2},
		delivered: true,
	}}
	out := replay(4, msgs, 1, pretimed(msgs), nil, -1)
	if out.services != 3 {
		t.Errorf("services = %d, want 3", out.services)
	}
	for p, want := range []int{1, 1, 1, 0} {
		if out.loads[p] != want {
			t.Errorf("loads[%d] = %d, want %d", p, out.loads[p], want)
		}
	}
	if out.maxQueueDepth != 1 {
		t.Errorf("maxQueueDepth = %d, want 1", out.maxQueueDepth)
	}
	if len(out.latencies) != 1 || out.latencies[0] != 3 {
		t.Errorf("latencies = %v, want [3]", out.latencies)
	}
	if out.makespan != 3 {
		t.Errorf("makespan = %v, want 3", out.makespan)
	}
	if out.injected != 1 || out.lastInject != 0 {
		t.Errorf("injected = %d at %v, want 1 at 0", out.injected, out.lastInject)
	}
}

func TestReplayContention(t *testing.T) {
	// Two messages injected simultaneously through the same single
	// node: FIFO order by message id, the second waits a full service.
	msgs := []replayMsg{
		{inject: 0, path: []metric.Point{5}, delivered: true},
		{inject: 0, path: []metric.Point{5}, delivered: true},
	}
	out := replay(8, msgs, 2, pretimed(msgs), nil, -1)
	if out.loads[5] != 2 {
		t.Errorf("loads[5] = %d, want 2", out.loads[5])
	}
	if out.maxQueueDepth != 2 {
		t.Errorf("maxQueueDepth = %d, want 2", out.maxQueueDepth)
	}
	want := []float64{2, 4}
	if len(out.latencies) != 2 || out.latencies[0] != want[0] || out.latencies[1] != want[1] {
		t.Errorf("latencies = %v, want %v", out.latencies, want)
	}
}

func TestReplayFailedMessageChargesLoad(t *testing.T) {
	msgs := []replayMsg{
		{inject: 0, path: []metric.Point{1, 2}, delivered: false},
	}
	out := replay(4, msgs, 1, pretimed(msgs), nil, -1)
	if out.loads[1] != 1 || out.loads[2] != 1 {
		t.Errorf("failed message should still be charged: %v", out.loads)
	}
	if len(out.latencies) != 0 {
		t.Errorf("failed message must not contribute latency: %v", out.latencies)
	}
}

func TestReplayIdleServerDrains(t *testing.T) {
	// Two messages far apart in time never queue behind each other.
	msgs := []replayMsg{
		{inject: 0, path: []metric.Point{3}, delivered: true},
		{inject: 100, path: []metric.Point{3}, delivered: true},
	}
	out := replay(4, msgs, 1, pretimed(msgs), nil, -1)
	if out.maxQueueDepth != 1 {
		t.Errorf("maxQueueDepth = %d, want 1", out.maxQueueDepth)
	}
	if out.latencies[1] != 1 {
		t.Errorf("second latency = %v, want 1 (no waiting)", out.latencies[1])
	}
}

func TestReplayEmpty(t *testing.T) {
	// No messages at all: the replay must return a zero outcome, not
	// panic or fabricate services.
	out := replay(4, nil, 1, nil, nil, -1)
	if out.services != 0 || out.maxQueueDepth != 0 || out.injected != 0 {
		t.Errorf("empty replay produced work: %+v", out)
	}
	if out.makespan != 0 || len(out.latencies) != 0 {
		t.Errorf("empty replay produced time: %+v", out)
	}
	// Messages whose searches produced no path (an exhausted graph)
	// occupy no queues but still count as injected.
	msgs := []replayMsg{{inject: 2}, {inject: 5}}
	out = replay(4, msgs, 1, pretimed(msgs), nil, -1)
	if out.services != 0 || out.injected != 2 || out.lastInject != 5 {
		t.Errorf("path-less messages: services=%d injected=%d last=%v",
			out.services, out.injected, out.lastInject)
	}
}

func TestDepthAtBoundaries(t *testing.T) {
	// depthAt's convention: a service finishing exactly at t has left;
	// the count never goes negative, and a drained ring is empty
	// wherever its head stopped. The ring starts mid-buffer so the
	// drain crosses the wrap.
	q := nodeQueue{finish: []float64{2, 4, 1, 2}, head: 2, n: 4}
	for _, tc := range []struct {
		t    float64
		want int
	}{
		{0, 4},
		{1 - 1e-12, 4},
		{1, 3}, // finish == t drains
		{2, 1}, // both t=2 departures drain together
		{3.999, 1},
		{4, 0},
		{100, 0},
	} {
		if got := q.depthAt(tc.t); got != tc.want {
			t.Errorf("depthAt(%v) = %d, want %d", tc.t, got, tc.want)
		}
	}
	if q.n != 0 || len(q.finish) != 4 {
		t.Errorf("fully drained queue should be empty on its four slots: %+v", q)
	}
	// Refilling past the slots grows the ring in FIFO order.
	for i := 0; i < 6; i++ {
		q.serve(200, 1) // finishes 201, 202, …: one server, back to back
	}
	if got := q.depthAt(203); got != 3 || len(q.finish) != 8 {
		t.Errorf("after 6 back-to-back services, depthAt(203) = %d on %d slots, want 3 on 8", got, len(q.finish))
	}
}

func TestReplayProbeBoundaries(t *testing.T) {
	// One message served on node 1 over [0,1), then node 2 over [1,2).
	// The probe convention matches depthAt: in system when
	// arrival ≤ probe < finish.
	msgs := []replayMsg{{inject: 0, path: []metric.Point{1, 2}, delivered: true}}
	for _, tc := range []struct {
		probe float64
		want  []int
	}{
		{0, []int{0, 1, 0, 0}},   // arrival instant counts
		{0.5, []int{0, 1, 0, 0}}, // mid-service
		{1, []int{0, 0, 1, 0}},   // finish instant has left node 1, entered node 2
		{2, []int{0, 0, 0, 0}},   // everything drained
	} {
		out := replay(4, msgs, 1, pretimed(msgs), nil, tc.probe)
		for p, want := range tc.want {
			if out.probeDepths[p] != want {
				t.Errorf("probe %v: depth[%d] = %d, want %d", tc.probe, p, out.probeDepths[p], want)
			}
		}
	}
	// Without a probe the depth vector stays nil.
	if out := replay(4, msgs, 1, pretimed(msgs), nil, -1); out.probeDepths != nil {
		t.Errorf("unprobed replay allocated probeDepths: %v", out.probeDepths)
	}
}

func TestReplayClosedLoopFeedback(t *testing.T) {
	// Two messages chained by a completion hook: message 1 may only
	// inject once message 0 completes, plus 3 ticks of think time.
	msgs := []replayMsg{
		{path: []metric.Point{0, 1}, delivered: true},
		{path: []metric.Point{0}, delivered: true},
	}
	completed := func(m int, at float64) (Injection, bool) {
		if m == 0 {
			return Injection{Msg: 1, Time: at + 3}, true
		}
		return Injection{}, false
	}
	out := replay(4, msgs, 1, []Injection{{Msg: 0, Time: 0}}, completed, -1)
	if out.injected != 2 {
		t.Fatalf("injected = %d, want 2", out.injected)
	}
	// Message 0 completes at 2, message 1 injects at 5 and finishes at 6.
	if out.lastInject != 5 {
		t.Errorf("lastInject = %v, want 5", out.lastInject)
	}
	if out.makespan != 6 {
		t.Errorf("makespan = %v, want 6", out.makespan)
	}
	if out.maxQueueDepth != 1 {
		t.Errorf("maxQueueDepth = %d, want 1 (feedback serializes the messages)", out.maxQueueDepth)
	}
	// A path-less head message must still unlock its successor, at its
	// own injection instant.
	msgs = []replayMsg{
		{path: nil, delivered: false},
		{path: []metric.Point{2}, delivered: true},
	}
	out = replay(4, msgs, 1, []Injection{{Msg: 0, Time: 7}}, completed, -1)
	if out.injected != 2 || out.lastInject != 10 || out.services != 1 {
		t.Errorf("path-less chain: injected=%d last=%v services=%d, want 2/10/1",
			out.injected, out.lastInject, out.services)
	}
}
