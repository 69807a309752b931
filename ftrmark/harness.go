package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// stats summarizes the timed repetitions of one metric. With a handful
// of repetitions nothing above the median has ten samples beyond it,
// so no tail percentile is reported.
type stats struct {
	Unit   string  `json:"unit"`
	Clock  string  `json:"clock"`
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// quartiles returns the cut points Python's statistics.quantiles(v,
// n=4) gives (the exclusive method), so spreads computed here match
// the ones the driver computes over runs.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

func summarize(spec metricSpec, v []float64) stats {
	q1, q2, q3 := quartiles(v)
	st := stats{Unit: spec.Unit, Clock: spec.Clock, N: len(v), Min: v[0], Q1: q1, Median: q2, Q3: q3, Max: v[0]}
	for _, x := range v {
		st.Min, st.Max = math.Min(st.Min, x), math.Max(st.Max, x)
	}
	return st
}

// spread is the interquartile range as a share of the median.
func (s stats) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// envStamp describes the machine and build a result was measured on.
type envStamp struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"git_commit"`
	Dirty      bool   `json:"git_dirty"`
}

func stampEnv() envStamp {
	e := envStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		Commit:     "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
		st, err := exec.Command("git", "status", "--porcelain").Output()
		e.Dirty = err != nil || len(st) > 0
	}
	return e
}

// procField returns the value of the first "key : value" line of a
// /proc file, "unknown" when the file or key is missing (non-Linux).
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// load1 is the one-minute load average, -1 when unavailable.
func load1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f := strings.Fields(procField("/proc/self/status", "VmHWM"))
	if len(f) == 0 {
		return 0
	}
	kb, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// check is one output check's verdict.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func verdict(name string, ok bool, format string, args ...interface{}) check {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	return c
}

// outcome is what one repetition of a workload's body produced, reduced
// to what the harness checks and reports. Everything here is virtual
// time or a count: it must repeat exactly for fixed inputs.
type outcome struct {
	Ops         int     `json:"ops"`         // lookups simulated
	Undelivered int     `json:"undelivered"` // lookups the modelled network did not deliver
	Events      int     `json:"events"`      // FIFO services (live engine runs) or lookups routed (knee_sweep, fig6_static)
	MeanHops    float64 `json:"mean_hops"`
	P99Ticks    float64 `json:"sim_p99_ticks"`
	Throughput  float64 `json:"sim_throughput"`
	Plan        string  `json:"plan,omitempty"`
	Digest      string  `json:"digest"`
	checks      []check // ledger, non-vacuity and oracle checks on this outcome
}

// virtual returns the outcome's virtual-time metrics by name. A body
// that never enters the engine (no Plan) has no virtual clock.
func (o *outcome) virtual() map[string]float64 {
	v := map[string]float64{
		"mean_hops":        o.MeanHops,
		"undelivered_frac": float64(o.Undelivered) / float64(o.Ops),
	}
	if o.Plan != "" {
		v["sim_p99_ticks"], v["sim_throughput"] = o.P99Ticks, o.Throughput
	}
	return v
}

// workload is one benchmark workload. Setup builds the inputs from the
// seed (recording layer spans under parent when tr is non-nil); Run
// executes one untraced repetition of the body on those inputs; Trace
// runs the traced pass and the lower-layer replays and returns the
// layer metrics, with the reason for every metric it had to omit.
type workload interface {
	Name() string
	Sizes() map[string]float64
	// Mutates reports whether Run changes the inputs, so that each
	// repetition needs a fresh Setup (outside the timed region).
	Mutates() bool
	Setup(tr *tracer, parent int) error
	Run() (*outcome, error)
	Trace(tr *tracer, ref *outcome) (layers map[string]float64, omitted map[string]string, checks []check, err error)
}

// repLimits bounds the timed repetitions: at least min, then until
// either max repetitions or the time budget is spent (whichever the
// caller set).
type repLimits struct {
	min, max int
	budget   time.Duration
}

const (
	setups    = 15 // set-ups timed per run; setup_s is their median (5 left its spread over ten runs near 10 %)
	timedReps = 7  // timed repetitions per workload when no time budget is given
)

// workloadResult is one workload's section of results.json.
type workloadResult struct {
	Name        string             `json:"name"`
	Sizes       map[string]float64 `json:"sizes"`
	Load1       float64            `json:"load1"`
	Plan        string             `json:"plan,omitempty"`
	Reps        int                `json:"reps"`
	Noisy       bool               `json:"noisy"`
	Ops         int                `json:"ops"`
	OpsFailed   int                `json:"ops_failed"`
	Undelivered int                `json:"ops_undelivered"`
	Events      int                `json:"events_per_rep"`
	Digest      string             `json:"digest"`
	Checks      []check            `json:"checks"`
	EndToEnd    map[string]stats   `json:"end_to_end,omitempty"`
	Virtual     map[string]float64 `json:"virtual,omitempty"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
	Omitted     map[string]string  `json:"omitted,omitempty"`
}

func (r *workloadResult) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// measure runs the untraced protocol on w: set-up (timed, several
// times), one untimed warm-up repetition that fixes the reference
// outcome, then the timed repetitions on identical inputs. Every
// repetition's digest must equal the warm-up's. It returns the result
// section and the reference outcome.
func measure(w workload, lim repLimits) (*workloadResult, *outcome, error) {
	res := &workloadResult{Name: w.Name(), Sizes: w.Sizes(), Load1: load1()}
	var setupS, wallS, eventsPerS []float64
	setup := func() error {
		runtime.GC()
		t0 := time.Now()
		if err := w.Setup(nil, 0); err != nil {
			return fmt.Errorf("%s: set-up: %w", w.Name(), err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		return nil
	}
	for i := 0; i < setups; i++ {
		if err := setup(); err != nil {
			return nil, nil, err
		}
	}

	ref, err := w.Run()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: warm-up: %w", w.Name(), err)
	}
	res.Checks = append(res.Checks, ref.checks...)
	res.Plan, res.Digest, res.Events = ref.Plan, ref.Digest, ref.Events

	var mallocs, bytes uint64
	var before, after runtime.MemStats
	digestsOK := true
	started := time.Now()
	for rep := 0; rep < lim.min || ((lim.max == 0 || rep < lim.max) && time.Since(started) < lim.budget); rep++ {
		if w.Mutates() {
			if err := setup(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		out, err := w.Run()
		secs := time.Since(t0).Seconds()
		runtime.ReadMemStats(&after)
		res.Ops += ref.Ops
		switch {
		case err != nil:
			res.OpsFailed += ref.Ops
			res.Checks = append(res.Checks, verdict(fmt.Sprintf("rep %d ran", rep), false, "%v", err))
			continue
		case out.Digest != ref.Digest:
			res.OpsFailed += ref.Ops
			digestsOK = false
			res.Checks = append(res.Checks, verdict(fmt.Sprintf("rep %d digest", rep), false, "%s, warm-up had %s", out.Digest, ref.Digest))
		}
		res.Undelivered += out.Undelivered
		wallS = append(wallS, secs)
		// Every repetition did the reference's events, or its digest check failed.
		eventsPerS = append(eventsPerS, float64(ref.Events)/secs)
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
	}
	res.Reps = len(wallS)
	if res.Reps == 0 {
		return res, ref, nil
	}
	res.Checks = append(res.Checks, verdict("every repetition's digest equals the warm-up's", digestsOK, "see rep checks"))

	lookups := float64(res.Reps * ref.Ops)
	values := map[string][]float64{
		"setup_s":        setupS,
		"wall_s":         wallS,
		"events_per_s":   eventsPerS,
		"allocs_per_msg": {float64(mallocs) / lookups},
		"bytes_per_msg":  {float64(bytes) / lookups},
		"peak_rss_mb":    {peakRSSMiB()},
	}
	res.EndToEnd = make(map[string]stats)
	for _, spec := range endToEndSpecs {
		res.EndToEnd[spec.Name] = summarize(spec, values[spec.Name])
	}
	res.Noisy = res.EndToEnd["wall_s"].spread() > noisySpread
	res.Virtual = ref.virtual()
	return res, ref, nil
}
