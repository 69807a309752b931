package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
)

// TestSeriesCoalesce pins the ring's growth contract: totals survive
// every coalescing step and the bucket count never exceeds capacity.
func TestSeriesCoalesce(t *testing.T) {
	s := newSeries(4)
	for win := 0; win < 100; win++ {
		s.at(win).Services += win
	}
	if s.used > len(s.buckets) {
		t.Fatalf("used %d exceeds capacity %d", s.used, len(s.buckets))
	}
	if s.stride != 32 {
		t.Errorf("stride = %d, want 32 (100 windows over 4 buckets)", s.stride)
	}
	total := 0
	for i := 0; i < s.used; i++ {
		total += s.buckets[i].Services
	}
	if want := 99 * 100 / 2; total != want {
		t.Errorf("coalesced total = %d, want %d", total, want)
	}
}

// TestSeriesOrderIndependence is the determinism argument: the final
// buckets are a pure function of the (window, increment) multiset, not
// of arrival order — which is what lets shard views record in parallel
// pop order and still merge byte-identically.
func TestSeriesOrderIndependence(t *testing.T) {
	incr := make([]int, 0, 300)
	for win := 0; win < 100; win++ {
		incr = append(incr, win, 99-win, (win*37)%100)
	}
	forward, backward := newSeries(8), newSeries(8)
	for _, win := range incr {
		c := forward.at(win)
		c.Services++
		if win > c.DepthMax {
			c.DepthMax = win
		}
	}
	for i := len(incr) - 1; i >= 0; i-- {
		c := backward.at(incr[i])
		c.Services++
		if incr[i] > c.DepthMax {
			c.DepthMax = incr[i]
		}
	}
	if forward.stride != backward.stride || forward.used != backward.used {
		t.Fatalf("shape diverged: %d/%d vs %d/%d",
			forward.stride, forward.used, backward.stride, backward.used)
	}
	for i := 0; i < forward.used; i++ {
		if forward.buckets[i] != backward.buckets[i] {
			t.Errorf("bucket %d diverged: %+v vs %+v", i, forward.buckets[i], backward.buckets[i])
		}
	}
}

// TestSeriesMergeAlignsStrides folds a fine view into a coarse main
// series and vice versa.
func TestSeriesMergeAlignsStrides(t *testing.T) {
	coarse := newSeries(4)
	for win := 0; win < 64; win++ {
		coarse.at(win).Services++ // stride grows to 16
	}
	fine := newSeries(4)
	fine.at(0).Services += 5
	fine.at(3).Services += 7
	coarse.merge(fine)
	total := 0
	for i := 0; i < coarse.used; i++ {
		total += coarse.buckets[i].Services
	}
	if total != 64+5+7 {
		t.Errorf("merged total = %d, want 76", total)
	}
	if coarse.buckets[0].Services != 16+5+7 {
		t.Errorf("bucket 0 = %d, want 28 (windows 0..15)", coarse.buckets[0].Services)
	}
}

// TestRecorderRoundTrip drives a tiny synthetic run through the full
// hook surface and checks the exported gauges.
func TestRecorderRoundTrip(t *testing.T) {
	r := New(Options{})
	r.Label("test-run")
	r.BeginRun(1, 4) // window length 1; every id sampled (4 ≤ flightSample)
	r.Inject(0, 0.5, 1, 9)
	r.Inject(1, 1.5, 2, 9)
	r.View(0).Service(0.5, 1)
	r.Hop(0, 3, 0.5, 0.5, 1.5, 1, DecisionGreedy)
	r.View(0).Service(1.5, 2)
	r.Hop(1, 3, 1.5, 1.5, 2.5, 2, DecisionBacktrack)
	r.Merge(1, 1.5)
	r.Complete(0, 1.5, true, ServedPrimary)
	r.Complete(1, 2.5, false, ServedNone)
	r.EndRun(0.25, 2)

	runs := r.Runs()
	if len(runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(runs))
	}
	run := runs[0]
	if run.Label != "test-run" {
		t.Errorf("label = %q", run.Label)
	}
	ws := run.Windows()
	if len(ws) != 3 {
		t.Fatalf("windows = %d, want 3 (0,1,2)", len(ws))
	}
	if ws[0].Injections != 1 || ws[0].Services != 1 || ws[0].InFlight != 1 {
		t.Errorf("window 0 = %+v", ws[0])
	}
	if ws[1].Injections != 1 || ws[1].Completions != 1 || ws[1].Merges != 1 || ws[1].InFlight != 1 {
		t.Errorf("window 1 = %+v", ws[1])
	}
	if ws[2].Completions != 1 || ws[2].Drops != 1 || ws[2].InFlight != 0 {
		t.Errorf("window 2 = %+v", ws[2])
	}
	if ws[1].DepthMax != 2 || ws[1].DepthSum != 2 || ws[1].DepthCount != 1 {
		t.Errorf("window 1 depth = %+v", ws[1].Counters)
	}
	// Scheduler: a run that never sharded reports one logical shard.
	if s := run.Sched(); s.Shards != 1 || s.Drain[0] != 0.25 || s.Events[0] != 2 {
		t.Errorf("seq sched = %+v", s)
	}
	worst := r.WorstFlights(10)
	if len(worst) != 2 {
		t.Fatalf("worst flights = %d, want 2", len(worst))
	}
	// Msg 0: inject 0.5, complete 1.5 → latency 1. Msg 1: 1.5→2.5 → 1.
	// Tie breaks toward the lower message id.
	if worst[0].Msg != 0 || worst[0].Latency != 1 {
		t.Errorf("worst[0] = %+v", worst[0])
	}
	if len(worst[0].Hops) != 1 || worst[0].Hops[0].Decision != "greedy" {
		t.Errorf("worst[0] hops = %+v", worst[0].Hops)
	}
	if !worst[1].Merged || worst[1].Served != "none" || worst[1].Delivered {
		t.Errorf("worst[1] = %+v", worst[1])
	}
}

// TestReservoirDeterminism: two recorders sample the same message IDs,
// flightSample of them, independent of anything the simulation does.
func TestReservoirDeterminism(t *testing.T) {
	a, b := New(Options{}), New(Options{})
	a.BeginRun(1, 1000)
	b.BeginRun(1, 1000)
	ra, rb := a.Runs()[0], b.Runs()[0]
	if len(ra.sampled) != flightSample || len(rb.sampled) != flightSample {
		t.Fatalf("sample sizes %d/%d, want %d", len(ra.sampled), len(rb.sampled), flightSample)
	}
	for id := range ra.sampled {
		if _, ok := rb.sampled[id]; !ok {
			t.Errorf("id %d sampled by a but not b", id)
		}
	}
}

// TestShardViewsMerge folds two shard views into the main series at
// EndRun.
func TestShardViewsMerge(t *testing.T) {
	r := New(Options{})
	r.BeginRun(2, 10) // window length 0.5
	v0, v1 := r.View(0), r.View(1)
	v0.Service(0.1, 3)
	v1.Service(0.2, 5)
	v1.Service(0.6, 1)
	r.EndRun(0.1, 3)
	ws := r.Runs()[0].Windows()
	if len(ws) != 2 {
		t.Fatalf("windows = %d, want 2", len(ws))
	}
	if ws[0].Services != 2 || ws[0].DepthMax != 5 || ws[0].DepthSum != 8 {
		t.Errorf("window 0 = %+v", ws[0].Counters)
	}
	if ws[1].Services != 1 {
		t.Errorf("window 1 = %+v", ws[1].Counters)
	}
}

// TestWriteJSONLParses checks every exported line is standalone JSON
// with the expected type tags, and the CSV has one row per bucket.
func TestWriteJSONLParses(t *testing.T) {
	r := New(Options{})
	r.BeginRun(1, 8)
	r.Inject(0, 0, 1, 2)
	r.View(0).Service(0, 1)
	r.Complete(0, 1, true, ServedPrimary)
	r.EndRun(0.01, 1)

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	types := map[string]int{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var line struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("unparseable line %q: %v", sc.Text(), err)
		}
		types[line.Type]++
	}
	if types["run"] != 1 || types["window"] == 0 {
		t.Errorf("line types = %v", types)
	}
	if types["flight"] == 0 {
		t.Errorf("no flight lines exported: %v", types)
	}

	buf.Reset()
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := bytes.Count(buf.Bytes(), []byte("\n"))
	if want := 1 + len(r.Runs()[0].Windows()); rows != want {
		t.Errorf("csv rows = %d, want %d", rows, want)
	}
}

// TestDisabledRecorderHooks: hook calls outside a run are no-ops, and
// a nil scheduler read stays nil.
func TestDisabledRecorderHooks(t *testing.T) {
	r := New(Options{})
	r.Inject(0, 0, 0, 0)
	r.Complete(0, 1, true, ServedPrimary)
	r.Merge(0, 1)
	r.Cache(1, 1)
	if v := r.View(0); v != nil {
		t.Errorf("no-run View = %v, want nil", v)
	}
	r.Hop(0, 0, 0, 0, 0, 1, DecisionGreedy)
	r.SchedInit(2, 10)
	r.SchedWindow(0, 1, 0, 1)
	r.SchedHandoffs(0, 1)
	r.EndRun(1, 1)
	if len(r.Runs()) != 0 {
		t.Errorf("no-run hooks created runs: %d", len(r.Runs()))
	}
	if r.Scheduler() != nil {
		t.Error("Scheduler() non-nil with no runs")
	}
}

// TestBarrierWaitFrac pins the headline fraction's range and zero
// handling.
func TestBarrierWaitFrac(t *testing.T) {
	s := &SchedStats{Drain: []float64{3, 1}, Wait: []float64{0, 2}}
	if got := s.BarrierWaitFrac(); got < 0 || got > 1 {
		t.Errorf("frac %v outside [0,1]", got)
	}
	if got, want := s.BarrierWaitFrac(), 2.0/6.0; got != want {
		t.Errorf("frac = %v, want %v", got, want)
	}
	empty := &SchedStats{}
	if got := empty.BarrierWaitFrac(); got != 0 {
		t.Errorf("empty frac = %v, want 0", got)
	}
}
