package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/failure"
)

// The smoke test runs the whole protocol at a scale small enough for
// `go test`: every workload, every check, the traced pass, the driver's
// output line and -compare.

func smokeOptions() options {
	P := runtime.NumCPU()
	if P > 4 {
		P = 4
	}
	return options{params: params{seed: 1, scale: 0.02, P: P}, reps: 5}
}

var smoke struct {
	once    sync.Once
	details []*detail
	err     error
}

// smokeRun runs all five workloads once and shares the result between
// tests.
func smokeRun(t *testing.T) []*detail {
	t.Helper()
	smoke.once.Do(func() {
		o := smokeOptions()
		for _, w := range newWorkloads(o.params) {
			d, err := runWorkload(w, o)
			if err != nil {
				smoke.err = err
				return
			}
			smoke.details = append(smoke.details, d)
		}
	})
	if smoke.err != nil {
		t.Fatal(smoke.err)
	}
	return smoke.details
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json differs from the metric tables; regenerate it with: ftrmark -spec > BENCHMARK.json")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEndSpecs...), contractPerLayer()...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] || (m.Better != lower && m.Better != higher) {
			t.Errorf("metric %q (unit %q, better %q) breaks the naming contract or repeats", m.Name, m.Unit, m.Better)
		}
		seen[m.Name] = true
	}
	for _, m := range endToEndSpecs {
		if m.Bound <= 0 || m.Bound > 0.25 || m.SameSeed <= 0 || m.SameSeed > m.Bound {
			t.Errorf("%s: bound %g outside (0, 0.25] or same-seed bound %g outside (0, bound]", m.Name, m.Bound, m.SameSeed)
		}
	}
	for _, w := range workloadSpecs {
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q breaks the naming contract", w.Name)
		}
		seen[w.Name] = true
	}
}

func TestSmokeAllWorkloads(t *testing.T) {
	details := smokeRun(t)
	if len(details) != len(workloadSpecs) {
		t.Fatalf("%d workloads ran, BENCHMARK.json names %d", len(details), len(workloadSpecs))
	}
	measured := map[string]bool{}
	plans := map[string]string{}
	for i, d := range details {
		r := d.Result
		if r.Name != workloadSpecs[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, r.Name, workloadSpecs[i].Name)
		}
		for _, c := range r.Checks {
			if !c.OK {
				t.Errorf("%s: check %q failed: %s", r.Name, c.Name, c.Detail)
			}
		}
		if r.OpsFailed != 0 || r.Ops == 0 || r.Reps != 5 {
			t.Errorf("%s: ops %d, failed %d, reps %d", r.Name, r.Ops, r.OpsFailed, r.Reps)
		}
		for _, s := range endToEndSpecs {
			if st, ok := r.EndToEnd[s.Name]; !ok || st.Median <= 0 || st.N == 0 {
				t.Errorf("%s: end-to-end metric %s missing or not positive: %+v", r.Name, s.Name, st)
			}
		}
		for _, s := range virtualSpecs {
			if _, ok := r.Virtual[s.Name]; !ok && (r.Plan != "" || !strings.HasPrefix(s.Name, "sim_")) {
				t.Errorf("%s: virtual metric %s missing", r.Name, s.Name)
			}
		}
		for name := range r.PerLayer {
			measured[name] = true
		}
		for name := range r.Omitted {
			measured[name] = true
		}
		if v, ok := r.PerLayer["trace.coverage_frac"]; !ok || v <= 0 || v > 1.01 {
			t.Errorf("%s: trace.coverage_frac = %g", r.Name, v)
		}
		if len(d.Spans) == 0 {
			t.Errorf("%s: no spans", r.Name)
		}
		plans[r.Name] = r.Plan
	}
	known := map[string]bool{}
	for _, s := range layerSpecs {
		known[s.Name] = true
		if !measured[s.Name] {
			t.Errorf("no workload measured (or gave a reason to omit) layer metric %s", s.Name)
		}
	}
	for name := range measured {
		if !known[name] && !strings.Contains(name, "*") {
			t.Errorf("layer metric %s is emitted but not in the tables", name)
		}
	}
	want := "live-sharded"
	if smokeOptions().P == 1 {
		want = "live-sequential"
	}
	if plans["live_seq"] != "live-sequential" || plans["live_sharded"] != want || plans["churn_pit"] != want {
		t.Errorf("plans: %v", plans)
	}
	if a, b := details[1].Result.Digest, details[2].Result.Digest; a != b {
		t.Errorf("live_seq digest %s, live_sharded %s", a, b)
	}
}

// TestDriverLine runs one workload the way the driver does and checks
// the last line of standard output against BENCHMARK.json.
func TestDriverLine(t *testing.T) {
	for trace, specs := range map[string][]metricSpec{"0": endToEndSpecs, "1": contractPerLayer()} {
		o := smokeOptions()
		o.workload, o.trace = "live_sharded", trace
		var out bytes.Buffer
		ok, err := runOne(o, &out)
		if err != nil || !ok {
			t.Fatalf("trace %s: ok %v, err %v", trace, ok, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted int   `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("trace %s: last line is not the driver's object: %v", trace, err)
		}
		if line.Correct == nil || !*line.Correct || line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
			t.Errorf("trace %s: %s", trace, lines[len(lines)-1])
		}
		if len(line.Metrics) != len(specs) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(line.Metrics), len(specs))
		}
		for _, s := range specs {
			if m, ok := line.Metrics[s.Name]; !ok || m.Value == nil || m.Unit != s.Unit {
				t.Errorf("trace %s: metric %s missing or has the wrong unit", trace, s.Name)
			}
		}
	}
}

// corrupting alters the digest of its third repetition.
type corrupting struct {
	workload
	runs int
}

func (c *corrupting) Run() (*outcome, error) {
	o, err := c.workload.Run()
	if c.runs++; c.runs == 3 && err == nil {
		o.Digest = "corrupted"
	}
	return o, err
}

func TestBadOutputsFailTheRun(t *testing.T) {
	o := smokeOptions()
	o.trace = "0"
	ws := newWorkloads(o.params)

	d, err := runWorkload(&corrupting{workload: ws[1]}, o)
	if err != nil {
		t.Fatal(err)
	}
	if r := d.Result; r.correct() || r.OpsFailed != r.Ops/r.Reps {
		t.Errorf("corrupted digest: correct %v, %d of %d lookups failed, want one repetition's", r.correct(), r.OpsFailed, r.Ops)
	}

	churn := ws[3].(*engineWL)
	churn.cfg.Churn = failure.ChurnSpec{ProbeTimeout: 4, GossipInterval: 1, GossipFanout: 2}
	if d, err = runWorkload(churn, o); err != nil {
		t.Fatal(err)
	}
	if r := d.Result; r.correct() || r.OpsFailed != r.Ops {
		t.Errorf("vacuous churn spec: correct %v, %d of %d lookups failed", r.correct(), r.OpsFailed, r.Ops)
	}

	knee := ws[4].(*kneeWL)
	knee.max = 2 * knee.min // the sweep runs into the cap while still stable
	if d, err = runWorkload(knee, o); err != nil {
		t.Fatal(err)
	}
	if r := d.Result; r.correct() || r.OpsFailed != r.Ops {
		t.Errorf("knee at the bracket cap: correct %v, %d of %d lookups failed", r.correct(), r.OpsFailed, r.Ops)
	}
}

func TestCompare(t *testing.T) {
	base := results{Seed: 1, Scale: 0.02, P: smokeOptions().P}
	for _, d := range smokeRun(t) {
		base.Workloads = append(base.Workloads, d.Result)
	}
	dir := t.TempDir()
	write := func(name string, edit func(*results)) string {
		b, err := json.Marshal(base)
		if err != nil {
			t.Fatal(err)
		}
		var r results
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatal(err)
		}
		for _, w := range r.Workloads {
			w.Noisy = false
		}
		edit(&r)
		if b, err = json.Marshal(r); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	same := write("same.json", func(*results) {})
	slower := write("slower.json", func(r *results) {
		st := r.Workloads[1].EndToEnd["wall_s"]
		st.Median *= 1.12
		r.Workloads[1].EndToEnd["wall_s"] = st
	})
	moreAllocs := write("allocs.json", func(r *results) {
		st := r.Workloads[4].EndToEnd["allocs_per_msg"]
		st.Median *= 1.015
		r.Workloads[4].EndToEnd["allocs_per_msg"] = st
	})
	dropped := write("dropped.json", func(r *results) { r.Workloads = r.Workloads[:4] })
	tracedOnly := write("traced.json", func(r *results) { r.Workloads[0].EndToEnd = nil })
	oneFailed := write("failed.json", func(r *results) { r.Workloads[3].OpsFailed++ })
	otherHops := write("hops.json", func(r *results) { r.Workloads[2].Virtual["mean_hops"] += 1e-9 })
	otherSeed := write("seed.json", func(r *results) { r.Seed = 2 })

	for _, c := range []struct {
		name, path string
		regressed  bool
		row        string
	}{
		{"a file against itself", same, false, ""},
		{"wall_s worse by 12 %", slower, true, `live_seq\s+wall_s\s+regressed`},
		{"allocs_per_msg worse by 1.5 %", moreAllocs, true, `knee_sweep\s+allocs_per_msg\s+regressed`},
		{"a workload that went missing", dropped, true, `knee_sweep\s+workload\s+regressed`},
		{"one more failed lookup", oneFailed, true, `churn_pit\s+ops_failed\s+regressed`},
		{"a virtual-time metric that moved", otherHops, true, `live_sharded\s+mean_hops\s+differs`},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, same, c.path)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if regressed != c.regressed || !regexp.MustCompile(c.row).MatchString(out.String()) {
			t.Errorf("%s: regressed = %v, want %v; output:\n%s", c.name, regressed, c.regressed, out.String())
		}
	}
	if _, err := compareFiles(io.Discard, same, otherSeed); err == nil {
		t.Error("files with different seeds compared without an error")
	}
	if _, err := compareFiles(io.Discard, same, tracedOnly); err == nil {
		t.Error("a file without an end-to-end section compared without an error")
	}
}
