package experiments

import (
	"fmt"
	"math"

	"repro/internal/failure"
	"repro/internal/load"
	"repro/internal/metric"
	"repro/internal/telemetry"
)

// The ext.churn.recovery experiment asks the self-stabilization
// question at traffic scale: after a correlated kill of a fraction of
// the network mid-flood, how long until gossip-membership repair
// restores delivered throughput? The measurement is windowed delivered
// throughput from the telemetry timeseries — (completions − drops) per
// virtual tick — compared between the pre-kill steady state and the
// post-kill windows. Repair on vs repair off is the headline contrast:
// the repaired network must climb back to ≥ 90% of its pre-kill
// flood-knee throughput in finite virtual time.

// RecoverFrac is the recovery threshold: the first post-kill window
// whose delivered throughput reaches this fraction of the pre-kill
// mean marks the network recovered.
const RecoverFrac = 0.9

// recoveryProfile is the delivered-throughput profile of one kill run,
// read out of its telemetry windows.
type recoveryProfile struct {
	// preKill is the mean delivered throughput over the windows wholly
	// before the kill, floor the worst post-kill window's.
	preKill, floor float64
	// recoveryTime is the virtual time from the kill to the end of the
	// first post-kill window back at ≥ RecoverFrac·preKill, or -1 if the
	// run never recovered. recovered is the best post-kill window's
	// fraction of preKill.
	recoveryTime, recovered float64
}

// killFrac is the fraction of the ring the correlated kill takes:
// -killfrac, or 30%.
func killFrac(p Params) float64 {
	if p.KillFrac == 0 {
		return 0.3
	}
	return p.KillFrac
}

// recoveryGrid is the churn-recovery scenario: sweep the healthy flood
// knee of a seeded ring, then rerun at the knee rate with a correlated
// kill of killFrac at one third of the injection horizon (-killat
// overrides), gossip repair on or off, and read the recovery profile out
// of the telemetry windows. The flood target is protected from the kill
// — the measurement is about routing repair, not about losing the only
// copy of the hot key. Each variant sweeps its own freshly built ring:
// the kill run's churn edits the graph.
var recoveryGrid = &grid{
	n: 1 << 10, msgsPerNode: 4,
	title: func(p Params) string {
		return fmt.Sprintf("Churn recovery under flood (ring n=%d, l=%d, kill %.0f%% @ 1/3 horizon, seed=%d)",
			p.N, p.lgLinks(), 100*killFrac(p), p.Seed)
	},
	columns: []string{"variant", "knee", "pre-kill thr", "floor thr", "recovery time",
		"recovered frac", "crashes", "links rebuilt", "gossip sends", "verdict"},
	scenarios: []loadScenario{ringHealthy},
	variants: func(Params) []variant {
		return []variant{{label: "repair on"}, {label: "repair off (baseline)"}}
	},
	// The sweep attaches no churn, so the graph comes out untouched and
	// the knee is the pre-kill capacity.
	base:       func(_ Params, c *load.Config) { c.Live, c.Churn = true, failure.ChurnSpec{} },
	workload:   "flood",
	seedBase:   6000,
	sweep:      true,
	bisections: 4,
	rerunAt:    1,
	rerun: func(c *cell) {
		horizon := float64(c.cfg.Messages) / c.sweep.Knee
		killAt := c.p.KillAt
		if killAt == 0 {
			killAt = horizon / 3
		}
		c.cfg.Telemetry = telemetry.New(telemetry.Options{})
		c.cfg.Churn = failure.ChurnSpec{
			Rate:         c.p.ChurnRate,
			Horizon:      horizon,
			KillFrac:     killFrac(c.p),
			KillAt:       killAt,
			GossipFanout: c.p.GossipFanout,
			Repair:       c.vi == 0, // "repair on" is the first variant
		}
		// The sweep's runs bound the generator to this graph and seed, so
		// its victim is the one the kill run elects.
		if target, ok := load.FloodTarget(c.gen); ok {
			c.cfg.Churn.Protect = []metric.Point{target}
		}
	},
	planNote: "plan=%[2]s — %[3]s", // both variants run one mode: no label
	row: func(c *cell, add addRow) error {
		if c.sweep.KneePoint() == nil {
			return fmt.Errorf(
				"churn recovery: no finite knee (minimum load already unstable at n=%d msgs=%d; raise -msgs)",
				c.p.N, c.p.Msgs)
		}
		killAt := c.cfg.Churn.KillAt
		prof, err := readWindows(c.cfg.Telemetry, killAt)
		if err != nil {
			return err
		}
		verdict := fmt.Sprintf("never back to %.0f%%", 100*RecoverFrac)
		if prof.recoveryTime >= 0 {
			verdict = fmt.Sprintf("recovered ≥%.0f%% in %.0f ticks", 100*RecoverFrac, prof.recoveryTime)
		}
		r, h := c.run, c.head
		add(c.v.label, c.sweep.Knee, prof.preKill, prof.floor, prof.recoveryTime,
			prof.recovered, r.Crashes, r.LinksRebuilt, r.GossipSends, verdict)
		if c.vi > 0 {
			h["baseline_recovery_time"], h["baseline_recovered_frac"] = prof.recoveryTime, prof.recovered
			return nil
		}
		h["kill_frac"], h["kill_at"], h["recover_frac"] = killFrac(c.p), killAt, RecoverFrac
		h["knee_rate"], h["pre_kill_throughput"], h["floor_throughput"] = c.sweep.Knee, prof.preKill, prof.floor
		h["recovery_time"], h["recovered_frac"] = prof.recoveryTime, prof.recovered
		h["crashes"], h["links_rebuilt"], h["gossip_sends"] = r.Crashes, r.LinksRebuilt, r.GossipSends
		h["membership_lag"] = r.MembershipLag
		return nil
	},
}

// readWindows reads the throughput profile out of the kill run's
// telemetry timeseries. Windows straddling the kill belong to neither
// regime; a warm-up prefix (the first quarter of the pre-kill span, while
// the pipeline fills) is excluded from the pre-kill mean, and trailing
// empty windows (after the last completion drained) never trigger
// recovery because their throughput is zero.
func readWindows(tel *telemetry.Recorder, killAt float64) (recoveryProfile, error) {
	runs := tel.Runs()
	if len(runs) == 0 {
		return recoveryProfile{}, fmt.Errorf("churn recovery: telemetry recorded no run")
	}
	run := runs[len(runs)-1]
	winLen := run.WindowLen()
	warmup := killAt / 4
	var preSum float64
	preN := 0
	r := recoveryProfile{floor: math.Inf(1), recoveryTime: -1}
	for _, w := range run.Windows() {
		start, end := float64(float64(w.Start)*winLen), float64(float64(w.End)*winLen)
		thr := float64(w.Completions-w.Drops) / (end - start)
		switch {
		case end <= killAt:
			if start >= warmup {
				preSum += thr
				preN++
			}
		case start >= killAt:
			if thr < r.floor {
				r.floor = thr
			}
			if r.preKill > 0 {
				if frac := thr / r.preKill; frac > r.recovered {
					r.recovered = frac
				}
				if r.recoveryTime < 0 && thr >= RecoverFrac*r.preKill {
					r.recoveryTime = end - killAt
				}
			}
		}
		if preN > 0 {
			r.preKill = preSum / float64(preN)
		}
	}
	if preN == 0 {
		return r, fmt.Errorf("churn recovery: no pre-kill windows (kill at %g too early for the window stride)", killAt)
	}
	if math.IsInf(r.floor, 1) {
		return r, fmt.Errorf("churn recovery: no post-kill windows (kill at %g past the run)", killAt)
	}
	return r, nil
}

// recoveryFields is the BENCH_recovery.json schema: the two rows of
// ext.churn.recovery. The gates are the churn acceptance criterion —
// the repaired run must recover (recovery_time positive, where -1
// means it never did; recovered_frac at least recover_frac) with the
// repair machinery actually having run — while the never-repaired
// baseline is recorded for contrast and only needs to be well formed.
// All times are virtual ticks.
var recoveryFields = scenarioFields(
	Field{Name: "kill_frac", Unit: "share of nodes", Gate: Fraction},
	Field{Name: "kill_at", Unit: "ticks", Gate: Positive},
	Field{Name: "recover_frac", Unit: "share of pre-kill throughput", Gate: Fraction},
	Field{Name: "knee_rate", Unit: "msgs/tick", Gate: Positive, Row: 0, Col: "knee"},
	Field{Name: "pre_kill_throughput", Unit: "msgs/tick", Gate: Positive, Row: 0, Col: "pre-kill thr"},
	Field{Name: "floor_throughput", Unit: "msgs/tick", Gate: NonNegative, Row: 0, Col: "floor thr"},
	Field{Name: "recovery_time", Unit: "ticks", Gate: Positive, Row: 0, Col: "recovery time"},
	Field{Name: "recovered_frac", Unit: "share of pre-kill throughput", Gate: Positive, AtLeast: "recover_frac", Row: 0, Col: "recovered frac"},
	Field{Name: "baseline_recovery_time", Unit: "ticks", Gate: PositiveOrNever, Row: 1, Col: "recovery time"},
	Field{Name: "baseline_recovered_frac", Unit: "share of pre-kill throughput", Gate: NonNegative, Row: 1, Col: "recovered frac"},
	Field{Name: "crashes", Unit: "nodes", Gate: PositiveInt, Row: 0, Col: "crashes"},
	Field{Name: "links_rebuilt", Unit: "links", Gate: PositiveInt, Row: 0, Col: "links rebuilt"},
	Field{Name: "gossip_sends", Unit: "msgs", Gate: PositiveInt, Row: 0, Col: "gossip sends"},
	Field{Name: "membership_lag", Unit: "ticks", Gate: NonNegative},
)

func init() {
	register(Experiment{
		ID:       "ext.churn.recovery",
		Artifact: "churn extension: time to recover flood-knee throughput after a correlated kill",
		Description: "flood traffic at the healthy knee rate, then a correlated kill of 30% of the " +
			"ring (the flood target protected): windowed delivered throughput before and " +
			"after, with gossip membership repair on vs the never-repaired baseline — " +
			"repair must climb back to ≥90% of the pre-kill knee throughput in finite time",
		Headline: &Headline{
			File:    "BENCH_recovery.json",
			Summary: "churn-recovery headline: gossip repair vs the never-repaired baseline after a 30% kill",
			Fields:  recoveryFields,
			Measure: recoveryGrid.measure,
		},
	})
}
