package experiments

import (
	"repro/internal/load"
	"repro/internal/sim"
)

// The ext.pit.* experiments isolate the pending-interest response
// path: suppression of redundant same-key forwarding network-wide,
// answers retracing the reverse path through the same per-node FIFOs,
// and the strand/timeout economics. The flood experiment sweeps the
// knee — where PIT's network-wide collapse beats per-queue aggregation
// on the rate the network absorbs — and the suppression experiment
// fixes the rate and breaks the ledger down: how many lookups parked,
// how many a returning answer released, how many timed out.

var pitFloodGrid = &grid{
	n: 1 << 10, msgsPerNode: 3,
	title: sweepTitle("Flood knee by response-path mode (torus 30%% failed, n≈%d, l=%d, seed=%d)"),
	columns: []string{"mode", "plan", "knee", "knee thr", "p99@knee", "suppressed", "fanout",
		"expired", "knee lift", "verdict"},
	scenarios: []loadScenario{torusFailed},
	// Snapshot has no live queues to suppress in.
	variants: func(Params) []variant { return engineModes[1:] },
	workload: "flood",
	seedBase: 8500,
	sweep:    true,
	// Lift compares knee RATES against the live+aggregate baseline —
	// the largest offered load each mode absorbs — not knee
	// throughputs: aggregation's merged completions are never charged
	// an answer leg, so its throughput counts work the response path
	// actually performs.
	liftOf:   kneeRate,
	baseline: 1,
	row: func(c *cell, add addRow) error {
		knee := c.atKnee()
		add(c.v.label, knee.Plan, c.sweep.Knee, c.sweep.KneeThroughput,
			c.sweep.KneeP99, knee.Suppressed, knee.MulticastFanout,
			knee.PITExpired, c.lift, c.verdict())
		return nil
	},
}

var pitSuppressionGrid = &grid{
	n: 1 << 10, msgs: 2048,
	title: runTitle("PIT suppression ledger (torus 30%% failed flood, n≈%d, l=%d, msgs=%d, seed=%d)"),
	columns: []string{"rate", "lifetime", "delivered", "suppressed", "released", "expired",
		"p99 lat", "queue depth"},
	scenarios: []loadScenario{torusFailed},
	// The rate ladder (-rate: that one rate), then the top rate again at
	// decreasing interest lifetimes (-pittimeout: that one lifetime). The
	// rows are separate draws, numbered in order.
	variants: func(p Params) []variant {
		rates := []float64{2, 8, 32, 128}
		if p.Rate > 0 {
			rates = []float64{p.Rate}
		}
		lifetimes := []float64{16, 4}
		if p.PITTimeout > 0 {
			lifetimes = []float64{p.PITTimeout}
		}
		var vs []variant
		at := func(rate, lifetime float64) {
			vs = append(vs, variant{label: sim.F(rate), seed: uint64(len(vs)), edit: func(c *load.Config) {
				c.Arrival = load.Poisson(rate)
				if lifetime > 0 {
					c.PITTimeout = lifetime
				}
			}})
		}
		for _, rate := range rates {
			at(rate, 0)
		}
		for _, lifetime := range lifetimes {
			at(rates[len(rates)-1], lifetime)
		}
		return vs
	},
	base:     func(_ Params, c *load.Config) { c.Live, c.PIT = true, true },
	workload: "flood",
	seedBase: 8600,
	row: func(c *cell, add addRow) error {
		r := c.run
		add(c.v.label, c.cfg.ResolvedPITTimeout(), r.Delivered, r.Suppressed, r.MulticastFanout,
			r.PITExpired, r.LatencyP99, r.MaxQueueDepth)
		return nil
	},
}

func init() {
	register(Experiment{
		ID:       "ext.pit.flood",
		Artifact: "PIT extension: response-path suppression vs the flood knee",
		Description: "single-target flood on a 30%-failed torus, no replication, swept in the " +
			"live, live+aggregate, and live+pit engine modes under open-loop Poisson " +
			"arrivals. The headline is the PIT knee rate: interest suppression collapses " +
			"the flood so completely that the sweep runs into its bracket cap unsaturated, " +
			"a lower bound on capacity already severalfold above the aggregation knee — " +
			"while, unlike aggregation, every delivered lookup is charged its answer's " +
			"return trip",
		Run: pitFloodGrid.run,
	})

	register(Experiment{
		ID:       "ext.pit.suppression",
		Artifact: "PIT extension: the suppression ledger across offered rates and interest lifetimes",
		Description: "fixed-rate single-target floods on a 30%-failed torus under live+pit at " +
			"increasing offered rates and, at the highest rate, decreasing interest " +
			"lifetimes: every suppressed lookup is accounted for — released by an " +
			"answer's multicast or expired into a re-forward — and latency is measured " +
			"to answer receipt. Short lifetimes show the false-expiry regime: interests " +
			"that time out just before their answer arrives re-forward redundantly, " +
			"inflating both the tail and the expiry count",
		Run: pitSuppressionGrid.run,
	})
}
