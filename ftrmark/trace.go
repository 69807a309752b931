package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the harness into a layer's exported API
// (or a harness-owned grouping of such calls, layer "ftrmark"). Start
// and End are seconds since the tracer was created; Parent is the id
// of the span that made the call, 0 for a root. Agg > 1 marks a span
// that stands for that many calls whose individual start times the
// harness cannot see (engine runs inside load.Sweep), laid end to end
// from the parent's start.
type span struct {
	Workload string             `json:"workload"`
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Layer    string             `json:"layer"`
	Name     string             `json:"name"`
	Start    float64            `json:"start_s"`
	End      float64            `json:"end_s"`
	Self     float64            `json:"self_s"`
	Agg      int                `json:"agg,omitempty"`
	Counts   map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory; they are written out when the
// benchmark ends. It is safe for concurrent use because fig6_static's
// trials record spans from sim.Run's worker goroutines.
type tracer struct {
	workload string
	epoch    time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// begin opens a span and returns its id (ids start at 1).
func (t *tracer) begin(parent int, layer, name string) int {
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Workload: t.workload, ID: len(t.spans) + 1, Parent: parent, Layer: layer, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id, attaching counts taken at the same boundary, and
// returns the span's duration in seconds.
func (t *tracer) end(id int, counts map[string]float64) float64 {
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	s.Counts = counts
	return s.End - s.Start
}

// aggregate records a synthetic child of parent covering total seconds
// from the parent's start and standing for n calls.
func (t *tracer) aggregate(parent int, layer, name string, n int, total float64, counts map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.spans[parent-1].Start
	t.spans = append(t.spans, span{Workload: t.workload, ID: len(t.spans) + 1, Parent: parent, Layer: layer, Name: name,
		Start: start, End: start + total, Agg: n, Counts: counts})
}

// time runs fn inside a span and returns its duration in seconds. A
// nil tracer only times: the untraced set-ups and repeat passes call
// the same code without recording anything.
func (t *tracer) time(parent int, layer, name string, fn func() (map[string]float64, error)) (float64, error) {
	if t == nil {
		t0 := time.Now()
		_, err := fn()
		return time.Since(t0).Seconds(), err
	}
	id := t.begin(parent, layer, name)
	counts, err := fn()
	return t.end(id, counts), err
}

// finish derives every span's self time: its duration minus the part
// of its interval its child spans cover (the union of the children,
// clipped to the parent, so parallel children are not counted twice).
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, edge := 0.0, s.Start
		for _, k := range kids {
			lo, hi := t.spans[k].Start, t.spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.Self = (s.End - s.Start) - covered
	}
	return t.spans
}

// coverage returns Σ(self time of layer spans under root) ÷ (root
// duration × lanes): the share of the traced pass spent inside some
// layer's exported API rather than in harness glue or, when the pass
// fans out over lanes workers, in an idle worker. Every span under
// root must have ended.
func (t *tracer) coverage(root, lanes int) float64 {
	spans := t.finish()
	under := map[int]bool{root: true}
	var layerSelf float64
	for _, s := range spans { // parents precede children
		if !under[s.Parent] {
			continue
		}
		under[s.ID] = true
		if s.Layer != "ftrmark" {
			layerSelf += s.Self
		}
	}
	r := spans[root-1]
	if d := (r.End - r.Start) * float64(lanes); d > 0 {
		return layerSelf / d
	}
	return 0
}

func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
