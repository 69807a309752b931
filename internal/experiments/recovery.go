package experiments

import (
	"fmt"
	"math"

	"repro/internal/failure"
	"repro/internal/load"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/sim"
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

// RecoveryResult is one measured churn-recovery run; the
// ext.churn.recovery table and its BENCH_recovery.json headline are
// both filled from it.
type RecoveryResult struct {
	// Knee is the healthy network's flood-knee rate (the offered load
	// the measurement runs at) and PreKill the mean delivered
	// throughput over the windows wholly before the kill.
	Knee    float64
	PreKill float64
	// KillAt is the kill's virtual time, Floor the worst post-kill
	// window's delivered throughput.
	KillAt float64
	Floor  float64
	// RecoveryTime is the virtual time from the kill to the end of the
	// first post-kill window back at ≥ RecoverFrac·PreKill, or -1 if
	// the run never recovered. Recovered is the best post-kill
	// window's fraction of PreKill.
	RecoveryTime float64
	Recovered    float64
	// Repair ledger, copied from the run.
	Crashes, Joins, LinksRebuilt, GossipSends int
	MembershipLag                             float64
	// Plan and PlanReason name the execution plan the measurement run
	// resolved to and why — surfaced so a multi-shard request that fell
	// back to the sequential loop is visible, not silent.
	Plan, PlanReason string
}

// recoveryScenario resolves the shared scenario parameters from p:
// a healthy seeded ring under single-target flood traffic.
func recoveryScenario(p Params) (msgs int, killFrac float64, p2 Params) {
	p = p.withDefaults(1<<10, 1, 0)
	msgs = p.Msgs
	if msgs == 0 {
		msgs = 4 * p.N
	}
	killFrac = p.KillFrac
	if killFrac == 0 {
		killFrac = 0.3
	}
	return msgs, killFrac, p
}

// MeasureRecovery runs the churn-recovery scenario once: sweep the
// healthy flood knee, then rerun at the knee rate with a correlated
// kill of killFrac at one third of the injection horizon (Params.KillAt
// overrides), gossip repair on or off, and read the recovery profile
// out of the telemetry windows. The flood target is protected from the
// kill — the measurement is about routing repair, not about losing the
// only copy of the hot key. Deterministic in (Params, repair).
func MeasureRecovery(p Params, repair bool) (*RecoveryResult, error) {
	msgs, killFrac, p := recoveryScenario(p)

	// Phase 1: the healthy knee. The sweep attaches no churn, so the
	// graph comes out untouched and the knee is the pre-kill capacity.
	g, err := buildLoadGraph(loadScenario{dim: 1}, p, p.Seed)
	if err != nil {
		return nil, err
	}
	sweepCfg := load.SweepConfig{
		Config: load.Config{
			Messages: msgs,
			Capacity: p.Capacity,
			Workers:  p.Workers,
			Shards:   p.Shards,
			Live:     true,
			Route:    routeOptions(),
		},
		Model:      "poisson",
		Bisections: 4,
	}
	runSeed := p.Seed + 6000
	res, err := load.Sweep(g, load.Flood(), sweepCfg, runSeed)
	if err != nil {
		return nil, err
	}
	if res.KneePoint() == nil {
		return nil, fmt.Errorf(
			"churn recovery: no finite knee (minimum load already unstable at n=%d msgs=%d; raise -msgs)",
			p.N, msgs)
	}
	knee := res.Knee

	// Phase 2: the kill. Pre-bind a probe flood generator with the
	// stream load.Run will use, so the Protect list names the same
	// victim Run's own Bind elects.
	probe := load.Flood()
	if err := probe.Bind(g, rng.New(runSeed).Derive(0)); err != nil {
		return nil, err
	}
	target, ok := load.FloodTarget(probe)
	if !ok {
		return nil, fmt.Errorf("churn recovery: flood generator did not bind a target")
	}
	horizon := float64(msgs) / knee
	killAt := p.KillAt
	if killAt == 0 {
		killAt = horizon / 3
	}
	tel := telemetry.New(telemetry.Options{})
	cfg := load.Config{
		Messages:  msgs,
		Capacity:  p.Capacity,
		Workers:   p.Workers,
		Shards:    p.Shards,
		Live:      true,
		Arrival:   load.Poisson(knee),
		Route:     routeOptions(),
		Telemetry: tel,
		Churn: failure.ChurnSpec{
			Rate:         p.ChurnRate,
			Horizon:      horizon,
			KillFrac:     killFrac,
			KillAt:       killAt,
			GossipFanout: p.GossipFanout,
			Repair:       repair,
			Protect:      []metric.Point{target},
		},
	}
	run, err := load.Run(g, load.Flood(), cfg, runSeed)
	if err != nil {
		return nil, err
	}
	out := &RecoveryResult{
		Knee:          knee,
		KillAt:        killAt,
		Crashes:       run.Crashes,
		Joins:         run.Joins,
		LinksRebuilt:  run.LinksRebuilt,
		GossipSends:   run.GossipSends,
		MembershipLag: run.MembershipLag,
		Plan:          run.Plan,
		PlanReason:    run.PlanReason,
	}
	if err := out.readWindows(tel, killAt); err != nil {
		return nil, err
	}
	return out, nil
}

// readWindows fills the throughput profile from the run's telemetry
// timeseries. Windows straddling the kill belong to neither regime; a
// warm-up prefix (the first quarter of the pre-kill span, while the
// pipeline fills) is excluded from the pre-kill mean, and trailing
// empty windows (after the last completion drained) never trigger
// recovery because their throughput is zero.
func (r *RecoveryResult) readWindows(tel *telemetry.Recorder, killAt float64) error {
	runs := tel.Runs()
	if len(runs) == 0 {
		return fmt.Errorf("churn recovery: telemetry recorded no run")
	}
	run := runs[len(runs)-1]
	winLen := run.WindowLen()
	warmup := killAt / 4
	var preSum float64
	preN := 0
	r.Floor = math.Inf(1)
	r.RecoveryTime = -1
	for _, w := range run.Windows() {
		start, end := float64(w.Start)*winLen, float64(w.End)*winLen
		thr := float64(w.Completions-w.Drops) / (end - start)
		switch {
		case end <= killAt:
			if start >= warmup {
				preSum += thr
				preN++
			}
		case start >= killAt:
			if thr < r.Floor {
				r.Floor = thr
			}
			if r.PreKill > 0 {
				if frac := thr / r.PreKill; frac > r.Recovered {
					r.Recovered = frac
				}
				if r.RecoveryTime < 0 && thr >= RecoverFrac*r.PreKill {
					r.RecoveryTime = end - killAt
				}
			}
		}
		if preN > 0 {
			r.PreKill = preSum / float64(preN)
		}
	}
	if preN == 0 {
		return fmt.Errorf("churn recovery: no pre-kill windows (kill at %g too early for the window stride)", killAt)
	}
	if math.IsInf(r.Floor, 1) {
		return fmt.Errorf("churn recovery: no post-kill windows (kill at %g past the run)", killAt)
	}
	return nil
}

// routeOptions is the traffic experiments' shared routing policy.
func routeOptions() route.Options {
	return route.Options{DeadEnd: route.Backtrack}
}

// recoveryVerdict summarizes one run for the table.
func recoveryVerdict(r *RecoveryResult) string {
	if r.RecoveryTime < 0 {
		return fmt.Sprintf("never back to %.0f%%", 100*RecoverFrac)
	}
	return fmt.Sprintf("recovered ≥%.0f%% in %.0f ticks", 100*RecoverFrac, r.RecoveryTime)
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

func measureChurnRecovery(p Params) (*sim.Table, Values, error) {
	msgs, killFrac, rp := recoveryScenario(p)
	t := sim.NewTable(
		fmt.Sprintf("Churn recovery under flood (ring n=%d, l=%d, kill %.0f%% @ 1/3 horizon, seed=%d)",
			rp.N, rp.lgLinks(), 100*killFrac, rp.Seed),
		"variant", "knee", "pre-kill thr", "floor thr", "recovery time",
		"recovered frac", "crashes", "links rebuilt", "gossip sends", "verdict")
	var runs [2]*RecoveryResult // repair on, repair off
	for i, label := range []string{"repair on", "repair off (baseline)"} {
		r, err := MeasureRecovery(p, i == 0)
		if err != nil {
			return nil, nil, err
		}
		runs[i] = r
		t.AddValues(label, r.Knee, r.PreKill, r.Floor, r.RecoveryTime,
			r.Recovered, r.Crashes, r.LinksRebuilt, r.GossipSends, recoveryVerdict(r))
		t.Note("plan=%s — %s", r.Plan, r.PlanReason)
	}
	on, off := runs[0], runs[1]
	v := scenarioValues(rp, msgs)
	v["kill_frac"], v["kill_at"], v["recover_frac"] = killFrac, on.KillAt, RecoverFrac
	v["knee_rate"], v["pre_kill_throughput"], v["floor_throughput"] = on.Knee, on.PreKill, on.Floor
	v["recovery_time"], v["recovered_frac"] = on.RecoveryTime, on.Recovered
	v["baseline_recovery_time"], v["baseline_recovered_frac"] = off.RecoveryTime, off.Recovered
	v["crashes"], v["links_rebuilt"], v["gossip_sends"] = on.Crashes, on.LinksRebuilt, on.GossipSends
	v["membership_lag"] = on.MembershipLag
	return t, v, nil
}

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
			Measure: measureChurnRecovery,
		},
	})
}
