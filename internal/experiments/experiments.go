// Package experiments implements every reproduction experiment in the
// index `ftrsim -list` prints: one entry per paper table row, figure,
// and ablation. The same registry backs cmd/ftrsim (run one
// experiment), cmd/ftrbench (regenerate everything), and the root-level
// Go benchmarks.
//
// The experiments share two runners and spell out only what differs.
// The single-message ones (table1.*, fig*, ablation.*, baselines and
// the §2/§7 ext.2d, ext.byzantine, ext.physical and ext.churn) go
// through the search-trial runner of trials.go: build a network, damage
// it, route, per trial stream. The traffic ones (ext.load.policy,
// ext.saturation/replica/engine/pit.* and ext.churn.recovery) are
// declared as a grid (grid.go): scenarios × variants, the columns and
// the cells of a row. README.md's Architecture table says how to add
// one.
//
// One table per claim: each of the nine traffic extensions owns a
// BENCH_*.json headline or is the table README cites for a stated
// claim, and TestRegistryComplete pins the catalogue. A new scenario
// for an existing claim becomes extra rows of the table that makes it
// (ext.saturation.policies' failed networks, baselines' failure
// ladder), not a new id.
//
// Default parameters are scaled so the full suite completes in minutes
// on a laptop; Params lets callers restore the paper's scale (n = 2^17,
// 1000 trials × 100 messages for Figure 6).
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"repro/internal/mathx"
	"repro/internal/metric"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Params tunes an experiment run. Zero values select per-experiment
// defaults.
type Params struct {
	// N is the network size (nodes / grid points). For Dim >= 2 it is
	// resolved to Side^Dim.
	N int
	// Dim is the metric-space dimension for the dimension-aware
	// experiments (fig6*, fig7, ext.2d): 0/1 selects the paper's 1-D
	// ring, >= 2 a torus of §7's higher-dimensional extension.
	Dim int
	// Side is the torus side length for Dim >= 2; 0 derives it from N
	// as the nearest integer d-th root.
	Side int
	// Links is ℓ; 0 selects the experiment's default (usually lg n).
	Links int
	// Trials is the number of independently built networks.
	Trials int
	// Msgs is the number of searches per network.
	Msgs int
	// Seed drives all randomness; equal seeds reproduce results
	// exactly.
	Seed uint64
	// Workers bounds parallelism; 0 uses GOMAXPROCS.
	Workers int
	// Shards partitions the live event loop across cores (ftrsim
	// -shards); 0 selects 1, the sequential reference. Results are
	// identical for every value.
	Shards int
	// Workload names the traffic generator of the traffic experiments
	// ("uniform", "zipf", "sources", "flood"); empty selects each
	// experiment's default.
	Workload string
	// Skew is the Zipf exponent of the skewed load workloads; 0
	// selects the P2P-typical 1.0.
	Skew float64
	// Capacity is the per-node service capacity of the load
	// experiments, in message-hops per virtual tick; 0 selects 1.
	Capacity float64
	// Penalty is the congestion-penalty weight of the load-aware
	// routing policy; 0 selects 1.
	Penalty float64
	// DepthPenalty is the instantaneous-queue-depth penalty of the
	// depth-aware routing policy; 0 selects 1 where that policy runs.
	DepthPenalty float64
	// Arrival names the arrival model of the traffic experiments
	// ("periodic", "poisson", "closed"); empty selects each
	// experiment's default (fixed-rate for ext.load.policy, Poisson for
	// the ext.saturation.* sweeps).
	Arrival string
	// Rate is the open-loop injection rate in messages per tick; 0
	// selects 1 for the fixed-rate experiments and the sweep's own
	// bracket for ext.saturation.*.
	Rate float64
	// Clients is the closed-loop client population; 0 selects 16.
	Clients int
	// Think is the closed-loop think time in ticks between a client's
	// lookups.
	Think float64
	// Replicas is the hot-key replica count k of the ext.replica.*
	// experiments (and, through loadConfig, of any traffic experiment);
	// 0/1 disables static replication.
	Replicas int
	// Cache is the popularity threshold of cache-on-path replication;
	// 0 disables caching.
	Cache int
	// Live switches the traffic experiments to the event-driven engine
	// mode: forwarding decisions read live load, queue depth, and
	// replica placement instead of batch snapshots.
	Live bool
	// Aggregate additionally coalesces same-key lookups that meet in a
	// node's queue (implies the live engine requirement; ftrsim -live
	// -aggregate).
	Aggregate bool
	// PIT switches the live engine to the response-path mode: every
	// request service plants a pending-interest entry, same-key lookups
	// arriving behind it are suppressed network-wide, and answers
	// retrace the reverse path, multicasting to recorded waiters
	// (implies the live engine requirement; ftrsim -pit).
	PIT bool
	// PITTimeout is the interest lifetime in virtual ticks before a
	// suppressed lookup re-forwards; 0 selects the load layer's default
	// (64 service times).
	PITTimeout float64
	// PITWaiters bounds a pending interest's waiter list; lookups
	// arriving past the bound forward normally. 0 selects the default
	// (16).
	PITWaiters int
	// Telemetry, when non-nil, attaches the virtual-time observability
	// recorder to every engine run the experiment performs (ftrsim
	// -telemetry). Observation only: results are byte-identical with
	// it nil or set.
	Telemetry *telemetry.Recorder
	// ChurnRate is the background churn intensity in lifecycle events
	// per virtual tick (ftrsim -churn): nodes crash and rejoin while
	// traffic runs, detected by probe timeout and repaired by gossip
	// membership. Churn requires the live engine (-live); 0 disables
	// background churn.
	ChurnRate float64
	// KillFrac crashes this fraction of the alive nodes in one
	// correlated regional kill (ftrsim -killfrac) at KillAt virtual
	// ticks (ftrsim -killat; 0 = one third of the injection horizon).
	KillFrac float64
	KillAt   float64
	// GossipFanout is the membership rumor push fanout (ftrsim
	// -gossipfanout); 0 selects the load layer's default (2).
	GossipFanout int
}

func (p Params) withDefaults(n, trials, msgs int) Params {
	if p.Dim == 0 {
		p.Dim = 1
	}
	if p.N == 0 {
		p.N = n
	}
	if p.Dim >= 2 {
		if p.Side == 0 {
			p.Side = int(math.Round(math.Pow(float64(p.N), 1/float64(p.Dim))))
		}
		if p.Side < 2 {
			p.Side = 2
		}
		p.N = mathx.IPow(p.Side, p.Dim)
	}
	if p.Trials == 0 {
		p.Trials = trials
	}
	if p.Msgs == 0 {
		p.Msgs = msgs
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Workers == 0 {
		p.Workers = runtime.GOMAXPROCS(0)
	}
	return p
}

// space returns the metric space the (resolved) parameters select: the
// paper's ring for dimension 1, a torus for dimension >= 2. The
// dimension-aware experiments build every trial network through this
// one call, so d = 1 and d >= 2 sweeps share the whole pipeline.
func (p Params) space() (metric.Space, error) {
	if p.Dim >= 2 {
		return metric.NewTorus(p.Side, p.Dim)
	}
	return metric.NewRing(p.N)
}

// spaceDesc names the selected space in table titles, carrying the
// dimension into text/CSV output.
func (p Params) spaceDesc() string {
	if p.Dim >= 2 {
		return fmt.Sprintf("torus d=%d side=%d", p.Dim, p.Side)
	}
	return "ring d=1"
}

// lgLinks returns ℓ defaulted to lg n, as in the paper's simulations.
func (p Params) lgLinks() int {
	if p.Links > 0 {
		return p.Links
	}
	if l := mathx.ILog2(p.N); l > 1 {
		return l
	}
	return 1
}

// Experiment is one reproducible artifact: a paper table row, figure,
// or ablation.
type Experiment struct {
	// ID is the stable identifier used on the command line and in the
	// experiment index (`ftrsim -list`).
	ID string
	// Artifact names the paper artifact this regenerates.
	Artifact string
	// Description summarizes the workload.
	Description string
	// Run executes the experiment.
	Run func(Params) (*sim.Table, error)
	// Headline is set on the experiments that own a BENCH_*.json (see
	// headline.go). They register Headline.Measure in place of Run, and
	// Run is that measurement's table.
	Headline *Headline
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	if e.Run == nil {
		measure := e.Headline.Measure
		e.Run = func(p Params) (*sim.Table, error) {
			t, _, err := measure(p)
			return t, err
		}
	}
	registry[e.ID] = e
}

// IDs returns all experiment ids in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Get returns the experiment registered under id.
func Get(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown id %q (see IDs())", id)
	}
	return e, nil
}

// Run executes the experiment registered under id.
func Run(id string, p Params) (*sim.Table, error) {
	e, err := Get(id)
	if err != nil {
		return nil, err
	}
	return e.Run(p)
}
