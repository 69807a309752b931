package load

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
)

// SweepConfig parameterizes a saturation sweep: repeated Runs of the
// embedded Config at increasing load, hunting for the capacity knee.
// The sweep owns Config.Arrival and Config.Rate; everything else
// (workload routing policy, penalties, capacity, workers) is taken as
// given, so the same sweep compares routing policies like-for-like.
type SweepConfig struct {
	Config
	// Model selects the arrival family swept: "periodic" (the
	// fixed-rate default), "poisson" (open-loop λ sweeps), or "closed"
	// (client-count sweeps with Think ticks between a client's
	// lookups).
	Model string
	// Think is the closed-loop think time in ticks; ignored otherwise.
	Think float64
	// Min and Max bracket the swept load — offered rate λ in messages
	// per tick for the open-loop models, client count for "closed".
	// Zero Min selects 1/2 (one client for closed-loop); zero Max
	// doubles from Min until instability, capped at 2^12 × Min.
	//
	// A sweep can only observe saturation that has time to build:
	// Config.Messages must be deep enough that an overloaded hot node
	// accumulates a backlog well past the p99 bound (a few times the
	// network size is a good rule of thumb for Zipf traffic).
	Min, Max float64
	// Bisections is how many times the bracket around the knee is
	// halved once an unstable load is found; zero selects 6.
	Bisections int
}

// throughputTrackFrac is how closely an open-loop run's delivered
// throughput must track the offered rate to count as keeping up.
const throughputTrackFrac = 0.9

// SweepPoint is one evaluated load level of the latency-vs-throughput
// curve.
type SweepPoint struct {
	// Load is the offered load: λ in messages per tick for open-loop
	// sweeps, the client count for closed-loop sweeps.
	Load float64
	// Stable reports whether Result met the sweep's p99 bound.
	Stable bool
	// Result is the full traffic report at this load.
	Result *Result
}

// SweepResult reports one saturation sweep.
type SweepResult struct {
	// Model echoes the arrival family swept.
	Model string
	// P99Bound is the latency half of the stability criterion, in
	// ticks: a load is stable only when its run's p99 latency stays at
	// or below it. It self-calibrates to 8× the p99 measured at Min
	// load (at least 8 service times), so the criterion scales with the
	// network's zero-load path length instead of hard-coding one.
	//
	// Open-loop loads must additionally keep up: delivered throughput
	// at least throughputTrackFrac of the offered rate (scaled by the
	// delivered fraction, so routing failures are not mistaken for
	// congestion). That is the "queues drain" half — past the knee the
	// network serves at its capacity no matter how fast messages
	// arrive, so measured throughput decouples from λ. The throughput
	// is measured over the makespan minus the baseline drain tail
	// calibrated at Min load, so the fixed cost of draining the last
	// in-flight messages does not masquerade as saturation on short
	// runs.
	P99Bound float64
	// Points holds every load evaluated, ascending — the
	// latency-vs-throughput curve (ext.saturation.knee prints it).
	Points []SweepPoint
	// Knee is the largest stable load evaluated — the capacity knee.
	// Zero when even Min was unstable.
	Knee float64
	// KneeThroughput and KneeP99 summarize the run at the knee.
	KneeThroughput, KneeP99 float64
	// Saturated reports whether an unstable load was observed above the
	// knee. False means the sweep ran into Max while still stable, so
	// Knee is only a lower bound on capacity.
	Saturated bool
}

// KneePoint returns the evaluated point at the knee, nil when even the
// minimum load was unstable.
func (s *SweepResult) KneePoint() *SweepPoint {
	for i := range s.Points {
		if s.Points[i].Load == s.Knee && s.Points[i].Stable {
			return &s.Points[i]
		}
	}
	return nil
}

// Sweep locates the capacity knee of (g, gen, cfg): the largest offered
// load at which queues still drain and tail latency stays bounded. It
// evaluates cfg.Min first (calibrating the p99 bound on it),
// doubles the load until a run goes unstable or cfg.Max is reached, then
// bisects the bracket. Every evaluation reuses the same seed, so
// workload pairs are identical across load levels and the sweep isolates
// the effect of injection pressure; like Run, the whole sweep is
// deterministic in (g, gen, cfg minus Workers and Shards, seed).
//
// The sweep prepares once what every level shares — the validated
// configuration, the bound workload's lookups and the replica seed — and
// runs each level on one engine.Runner, so a level allocates only its
// own schedule, replica placement, Loads and ServedBy; each point's
// Result equals a fresh Run at its load. A churn spec that schedules
// events (Rate, KillFrac or FlashJoin) is an error: the engine applies
// them to g, so each level would route on the network the last one's
// churn left. A knobs-only spec is allowed.
func Sweep(g *graph.Graph, gen Generator, cfg SweepConfig, seed uint64) (*SweepResult, error) {
	model := cfg.Model
	if model == "" {
		model = "periodic"
	}
	// Normalize the same aliases NewArrival resolves, so a flag value
	// valid for the fixed-rate experiments is valid here too.
	switch model {
	case "periodic", "poisson", "closed":
	case "open":
		model = "poisson"
	case "closed-loop":
		model = "closed"
	default:
		return nil, fmt.Errorf("load: unknown arrival model %q (periodic, poisson, closed)", model)
	}
	closed := model == "closed"
	if cfg.Min <= 0 {
		if closed {
			cfg.Min = 1
		} else {
			cfg.Min = 0.5
		}
	}
	if cfg.Bisections == 0 {
		cfg.Bisections = 6
	}
	maxLoad := cfg.Max
	if maxLoad <= 0 {
		maxLoad = cfg.Min * float64(int64(1)<<12)
	}
	if closed {
		cfg.Min = math.Round(cfg.Min)
		maxLoad = math.Round(maxLoad)
	}
	if cfg.Min > maxLoad {
		return nil, fmt.Errorf("load: sweep bracket [%g, %g] is empty", cfg.Min, maxLoad)
	}
	prep, err := prepare(g, gen, cfg.Config, seed)
	if err != nil {
		return nil, err
	}
	if c := prep.cfg.Churn; c.Rate > 0 || c.KillFrac > 0 || c.FlashJoin > 0 {
		// The engine applies churn events to g, so every level would
		// route on the network the level before it left.
		return nil, fmt.Errorf("load: a sweep runs every level on one graph, so it cannot schedule churn events (rate %g, kill %g, flash %d)", c.Rate, c.KillFrac, c.FlashJoin)
	}

	res := &SweepResult{Model: model}
	// judge applies the two-sided stability criterion; only valid once
	// res.P99Bound and baselineDrain are calibrated. The effective
	// serving window discounts the baseline drain — the time the last
	// in-flight messages need to land even with empty queues — so only
	// backlog growth beyond it counts against the load.
	var baselineDrain float64
	judge := func(at float64, r *Result) bool {
		if r.LatencyP99 > res.P99Bound {
			return false
		}
		if closed {
			return true // a closed-loop population self-limits its rate
		}
		if r.Delivered == 0 {
			return false
		}
		window := r.Makespan - baselineDrain
		if window < r.LastInject {
			window = r.LastInject
		}
		if window <= 0 {
			return false
		}
		offered := at * float64(r.Delivered) / float64(r.Injected)
		return float64(r.Delivered)/window >= throughputTrackFrac*offered
	}
	evaluated := map[float64]*SweepPoint{}
	eval := func(at float64) (*SweepPoint, error) {
		if closed {
			at = math.Round(at)
		}
		if p, ok := evaluated[at]; ok {
			return p, nil
		}
		arr := Periodic(at)
		switch {
		case closed:
			arr = ClosedLoop(int(at), cfg.Think)
		case model == "poisson":
			arr = Poisson(at)
		}
		r, err := prep.run(arr)
		if err != nil {
			return nil, err
		}
		p := &SweepPoint{Load: at, Result: r}
		if res.P99Bound > 0 {
			p.Stable = judge(at, r)
		}
		evaluated[at] = p
		res.Points = append(res.Points, *p)
		return p, nil
	}

	// Calibrate the stability bound on the minimum-load run, then
	// re-judge that run against it.
	base, err := eval(cfg.Min)
	if err != nil {
		return nil, err
	}
	serviceTime := 1 / prep.cfg.Capacity
	res.P99Bound = float64(8 * math.Max(base.Result.LatencyP99, serviceTime))
	if cfg.Config.PIT {
		// A suppressed lookup whose carrier strands lawfully waits out
		// the full interest lifetime before re-forwarding — protocol-
		// mandated latency a single strand adds with zero congestion.
		// The minimum-load calibration rarely sees a strand (few lookups
		// are concurrent enough to park), so the bound widens by one
		// lifetime.
		res.P99Bound += prep.cfg.PITTimeout
	}
	baselineDrain = base.Result.Makespan - base.Result.LastInject
	if baselineDrain < 0 {
		baselineDrain = 0
	}
	if cfg.Config.PIT && res.P99Bound > baselineDrain {
		// The strand tail shows up in the makespan too, as a fixed
		// protocol cost: a waiter parked behind a stranded carrier
		// lawfully sits out the interest lifetime before its retry walk,
		// so a run's makespan trails its last injection by up to one full
		// lawful latency — a constant of the protocol, not backlog
		// growth. The minimum-load calibration cannot see that tail (few
		// lookups are concurrent enough to park), so under PIT the drain
		// discount is the sweep's own latency ceiling: any tail within
		// the lawful latency of the last injected lookup is protocol.
		// Genuine saturation still registers twice over — backlog
		// stretches the makespan past the bound without limit, and the
		// p99 half of the criterion trips as latencies cross it.
		baselineDrain = res.P99Bound
	}
	base.Stable = judge(base.Load, base.Result)
	res.Points[0].Stable = base.Stable

	if base.Stable {
		// Double until unstable (or the bracket cap), then bisect.
		lo, cur := cfg.Min, cfg.Min
		var hi float64
		for hi == 0 && cur < maxLoad {
			cur *= 2
			if cur > maxLoad {
				cur = maxLoad
			}
			p, err := eval(cur)
			if err != nil {
				return nil, err
			}
			if p.Stable {
				lo = p.Load
			} else {
				hi = p.Load
			}
		}
		if hi > 0 {
			res.Saturated = true
			for i := 0; i < cfg.Bisections; i++ {
				if closed && hi-lo <= 1 {
					break
				}
				p, err := eval((lo + hi) / 2)
				if err != nil {
					return nil, err
				}
				if p.Load <= lo || p.Load >= hi {
					break // integer rounding stopped making progress
				}
				if p.Stable {
					lo = p.Load
				} else {
					hi = p.Load
				}
			}
		}
		res.Knee = lo
	} else {
		res.Saturated = true
	}

	sort.Slice(res.Points, func(i, j int) bool { return res.Points[i].Load < res.Points[j].Load })
	// Re-stamp stability flags: points evaluated before the bound was
	// calibrated (just the first) were judged above; copy from the map
	// to keep the slice and the knee consistent.
	for i := range res.Points {
		res.Points[i].Stable = evaluated[res.Points[i].Load].Stable
	}
	if kp := res.KneePoint(); kp != nil {
		res.KneeThroughput = kp.Result.Throughput
		res.KneeP99 = kp.Result.LatencyP99
	}
	return res, nil
}
