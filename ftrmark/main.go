// Command ftrmark is the repository's benchmark: one seeded harness
// that generates five workloads, runs them, checks their outputs, and
// prints end-to-end and per-layer metrics by name with their units.
//
//	bash ftrmark/run.sh                      all workloads; writes results.json and trace.jsonl to -out
//	bash ftrmark/run.sh -compare old new     apply the bounds to two result files
//	bash ftrmark/run.sh --workload live_seq --seed 3 --seconds 10 --trace 0
//
// The last form is the driver's: one workload per process, and the
// last line of standard output is one JSON object. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	params
	workload string
	seconds  int
	reps     int    // timed repetitions when seconds is 0; timedReps outside tests
	trace    string // "0" end-to-end only, "1" per-layer only, "" both
	out      string
	detail   string // single-workload mode: also write the full section and spans here
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ftrmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var compare, spec bool
	fs.StringVar(&o.workload, "workload", "", "run only this workload and print the driver's JSON line last")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of every input generator")
	fs.Float64Var(&o.scale, "scale", 1, "shrink (or grow) all five workloads together")
	fs.IntVar(&o.seconds, "seconds", 0, "repeat each body for this many seconds, at least 5 times; 0 runs exactly 7 repetitions")
	fs.StringVar(&o.trace, "trace", "", "with -workload: 0 runs the timed repetitions only, 1 the traced pass only; empty runs both")
	fs.StringVar(&o.out, "out", "ftrmark/out", "directory for results.json and trace.jsonl")
	fs.StringVar(&o.detail, "detail", "", "with -workload: also write the workload's full result and spans to this file")
	fs.BoolVar(&compare, "compare", false, "compare two result files: ftrmark -compare old.json new.json")
	fs.BoolVar(&spec, "spec", false, "print BENCHMARK.json as the metric tables define it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case spec:
		var b []byte
		if b, err = benchmarkJSON(); err == nil {
			_, err = stdout.Write(b)
		}
	case compare:
		if fs.NArg() != 2 {
			err = errors.New("-compare takes two result files: old.json new.json")
			break
		}
		var regressed bool
		if regressed, err = compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err == nil && regressed {
			return 1
		}
	default:
		if o.scale <= 0 || o.seconds < 0 || o.seed == 0 || (o.trace != "" && o.trace != "0" && o.trace != "1") {
			err = errors.New("need -scale > 0, -seconds >= 0, -seed >= 1 and -trace 0 or 1")
			break
		}
		o.reps = timedReps
		// Never more threads than cores: P workers, P shards, P Ps.
		o.P = runtime.NumCPU()
		if o.P > 4 {
			o.P = 4
		}
		runtime.GOMAXPROCS(o.P)
		var ok bool
		if o.workload != "" {
			ok, err = runOne(o, stdout)
		} else {
			ok, err = runSuite(o, stdout, stderr)
		}
		if err == nil && !ok {
			return 1
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "ftrmark:", err)
		return 1
	}
	return 0
}

// detail is what a child process hands back to the suite.
type detail struct {
	Result *workloadResult `json:"result"`
	Spans  []span          `json:"spans"`
}

// verifier is implemented by workloads with an output check that needs
// a second run (live_sharded against the sequential plan).
type verifier interface {
	Verify(ref *outcome) ([]check, error)
}

// runWorkload applies the run protocol to one workload in this
// process: the untraced repetitions (unless traceOnly), then the
// traced pass (unless timedOnly).
func runWorkload(w workload, o options) (*detail, error) {
	lim := repLimits{min: o.reps, max: o.reps}
	if o.seconds > 0 {
		lim = repLimits{min: 5, budget: time.Duration(o.seconds) * time.Second}
	}
	var res *workloadResult
	var ref *outcome
	var err error
	if o.trace != "1" {
		if res, ref, err = measure(w, lim); err != nil {
			return nil, err
		}
	}
	tr := newTracer(w.Name())
	if o.trace != "0" {
		root := tr.begin(0, "ftrmark", w.Name()+" set-up")
		err = w.Setup(tr, root)
		tr.end(root, nil)
		if err != nil {
			return nil, err
		}
		if res == nil {
			if ref, err = w.Run(); err != nil {
				return nil, fmt.Errorf("%s: warm-up: %w", w.Name(), err)
			}
			res = &workloadResult{Name: w.Name(), Sizes: w.Sizes(), Load1: load1(), Plan: ref.Plan, Digest: ref.Digest,
				Ops: ref.Ops, Undelivered: ref.Undelivered, Events: ref.Events, Checks: ref.checks, Virtual: ref.virtual()}
		}
	}
	if v, ok := w.(verifier); ok {
		checks, err := v.Verify(ref)
		if err != nil {
			return nil, fmt.Errorf("%s: verify: %w", w.Name(), err)
		}
		res.Checks = append(res.Checks, checks...)
	}
	if o.trace != "0" {
		var checks []check
		if res.PerLayer, res.Omitted, checks, err = w.Trace(tr, ref); err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", w.Name(), err)
		}
		res.Checks = append(res.Checks, checks...)
	}
	if !res.correct() && res.OpsFailed == 0 {
		res.OpsFailed = res.Ops // a failed check condemns every lookup it covered
	}
	return &detail{Result: res, Spans: tr.finish()}, nil
}

// runOne is single-workload mode. The last line of stdout is the
// driver's object: the end-to-end metrics with -trace 0, the per-layer
// metrics with -trace 1 (a metric the workload does not measure reads
// 0), both when -trace is empty.
func runOne(o options, stdout io.Writer) (bool, error) {
	var w workload
	for _, c := range newWorkloads(o.params) {
		if c.Name() == o.workload {
			w = c
		}
	}
	if w == nil {
		return false, fmt.Errorf("unknown workload %q", o.workload)
	}
	d, err := runWorkload(w, o)
	if err != nil {
		return false, err
	}
	printWorkload(stdout, d.Result)
	if o.detail != "" {
		b, err := json.Marshal(d)
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(o.detail, b, 0o644); err != nil {
			return false, err
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{d.Result.correct(), d.Result.Ops, d.Result.OpsFailed, map[string]value{}}
	if o.trace != "1" {
		for _, s := range endToEndSpecs {
			line.Metrics[s.Name] = value{d.Result.EndToEnd[s.Name].Median, s.Unit}
		}
	}
	if o.trace != "0" {
		for _, s := range virtualSpecs {
			line.Metrics[s.Name] = value{d.Result.Virtual[s.Name], s.Unit}
		}
		for _, s := range layerSpecs {
			line.Metrics[s.Name] = value{d.Result.PerLayer[s.Name], s.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return d.Result.correct(), err
}

// results is results.json.
type results struct {
	Env       envStamp          `json:"env"`
	Seed      uint64            `json:"seed"`
	Scale     float64           `json:"scale"`
	P         int               `json:"p"`
	Protocol  string            `json:"protocol"`
	Metrics   []metricSpec      `json:"metrics"`
	Workloads []*workloadResult `json:"workloads"`
}

// runSuite runs every workload, each in its own child process, one at
// a time, so that peak RSS is per workload and no garbage-collector
// state leaks from one into the next.
func runSuite(o options, stdout, stderr io.Writer) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return false, err
	}
	res := results{Env: stampEnv(), Seed: o.seed, Scale: o.scale, P: o.P,
		Metrics: append(append(append([]metricSpec(nil), endToEndSpecs...), virtualSpecs...), layerSpecs...)}
	reps := fmt.Sprintf("%d timed repetitions", o.reps)
	if o.seconds > 0 {
		reps = fmt.Sprintf("timed repetitions for %d s (at least 5)", o.seconds)
	}
	res.Protocol = fmt.Sprintf("per workload, in its own process: %d timed set-ups, 1 untimed warm-up, %s, then 1 traced pass; medians of raw host seconds", setups, reps)
	fmt.Fprintf(stdout, "ftrmark seed=%d scale=%g P=%d (NumCPU %d) %s %s/%s %s commit %s dirty=%v\n",
		o.seed, o.scale, o.P, res.Env.NumCPU, res.Env.GoVersion, res.Env.GOOS, res.Env.GOARCH, res.Env.CPUModel, res.Env.Commit, res.Env.Dirty)
	var spans []span
	ok := true
	for _, w := range workloadSpecs {
		path := filepath.Join(o.out, "."+w.Name+".json")
		cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(o.seed), "-scale", fmt.Sprint(o.scale),
			"-seconds", fmt.Sprint(o.seconds), "-detail", path)
		cmd.Stderr = stderr
		out, runErr := cmd.Output()
		var exit *exec.ExitError
		if runErr != nil && !errors.As(runErr, &exit) {
			return false, fmt.Errorf("%s: %w", w.Name, runErr)
		}
		// Everything but the child's last line (the driver's object) is
		// its report.
		if i := strings.LastIndexByte(strings.TrimRight(string(out), "\n"), '\n'); i >= 0 {
			stdout.Write(out[:i+1])
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return false, fmt.Errorf("%s: child exited without a result (%v)", w.Name, runErr)
		}
		os.Remove(path)
		var d detail
		if err := json.Unmarshal(b, &d); err != nil {
			return false, fmt.Errorf("%s: %w", w.Name, err)
		}
		res.Workloads = append(res.Workloads, d.Result)
		spans = append(spans, d.Spans...)
		ok = ok && runErr == nil && d.Result.correct()
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(filepath.Join(o.out, "results.json"), append(b, '\n'), 0o644); err != nil {
		return false, err
	}
	f, err := os.Create(filepath.Join(o.out, "trace.jsonl"))
	if err != nil {
		return false, err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return false, err
	}
	if err := f.Close(); err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "wrote %s and %s; all checks passed: %v\n", filepath.Join(o.out, "results.json"), filepath.Join(o.out, "trace.jsonl"), ok)
	return ok, nil
}

// printWorkload prints one workload's section: every metric by name
// with its unit and clock.
func printWorkload(w io.Writer, r *workloadResult) {
	sizes := make([]string, 0, len(r.Sizes))
	for k, v := range r.Sizes {
		sizes = append(sizes, fmt.Sprintf("%s=%g", k, v))
	}
	sort.Strings(sizes)
	fmt.Fprintf(w, "\n== %s  %s  plan=%s load1=%.2f\n", r.Name, strings.Join(sizes, " "), r.Plan, r.Load1)
	fmt.Fprintf(w, "   ops=%d ops_failed=%d ops_undelivered=%d events_per_rep=%d digest=%s\n", r.Ops, r.OpsFailed, r.Undelivered, r.Events, r.Digest)
	failed := 0
	for _, c := range r.Checks {
		if !c.OK {
			failed++
			fmt.Fprintf(w, "   CHECK FAILED: %s: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Fprintf(w, "   checks: %d run, %d failed\n", len(r.Checks), failed)
	if r.EndToEnd != nil {
		noisy := ""
		if r.Noisy {
			noisy = fmt.Sprintf("  NOISY: wall_s IQR/median > %g", noisySpread)
		}
		fmt.Fprintf(w, "   end-to-end, untraced, n = timed repetitions (too few for any percentile above the median)%s\n", noisy)
		for _, s := range endToEndSpecs {
			st := r.EndToEnd[s.Name]
			fmt.Fprintf(w, "     %-16s %-6s %s  n=%d min %.6g median %.6g max %.6g  q1 %.6g q3 %.6g\n",
				s.Name, s.Unit, st.Clock, st.N, st.Min, st.Median, st.Max, st.Q1, st.Q3)
		}
	}
	for _, s := range virtualSpecs {
		if v, ok := r.Virtual[s.Name]; ok {
			fmt.Fprintf(w, "     %-16s %-6s virtual  %.10g\n", s.Name, s.Unit, v)
		}
	}
	if r.PerLayer != nil {
		fmt.Fprintf(w, "   per-layer, traced pass and replays (host clock unless the unit is a count or ratio)\n")
		for _, s := range layerSpecs {
			if v, ok := r.PerLayer[s.Name]; ok {
				fmt.Fprintf(w, "     %-34s %-6s %.6g\n", s.Name, s.Unit, v)
			}
		}
		reasons := make([]string, 0, len(r.Omitted))
		for k, v := range r.Omitted {
			reasons = append(reasons, fmt.Sprintf("     %s omitted: %s", k, v))
		}
		sort.Strings(reasons)
		for _, line := range reasons {
			fmt.Fprintln(w, line)
		}
	}
}
