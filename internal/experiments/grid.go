package experiments

import (
	"fmt"
	"math"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/metric"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/sim"
)

// The traffic grid is the protocol of ext.load.policy, of every
// ext.saturation.*, ext.replica.*, ext.engine.*, ext.pit.* table and of
// ext.churn.recovery: for each scenario build a seeded network, for each
// variant resolve the load.Config the flags describe, edit it, run the
// traffic (one fixed-rate load.Run, or a load.Sweep for the capacity
// knee), and print a row. An experiment declares the scenarios, the
// variants, the columns and the cells; the grid owns graph
// construction, the one Params → load.Config resolver, the seed
// discipline, error plumbing, the lift against a baseline row, the
// verdict of a sweep that found no stable load, and the execution-plan
// notes. Results are independent of Params.Workers and Params.Shards
// (load.Run's guarantee), so tables are byte-identical across machines
// for a fixed seed.

// loadScenario is one network under test: a space plus a fraction of
// nodes to crash before traffic starts.
type loadScenario struct {
	label    string
	dim      int // 1 = ring, 2 = torus
	failFrac float64
}

var (
	ringHealthy  = loadScenario{"ring healthy", 1, 0}
	ringFailed   = loadScenario{"ring 30% failed", 1, 0.3}
	torusHealthy = loadScenario{"torus healthy", 2, 0}
	torusFailed  = loadScenario{"torus 30% failed", 2, 0.3}
)

// variant is one treatment of a scenario's network.
type variant struct {
	label string
	// edit adjusts the resolved configuration; nil leaves it as the
	// flags describe it.
	edit func(*load.Config)
	// seed is added to the run seed. Variants normally share one seed —
	// the same traffic under different treatments; tables whose rows are
	// separate draws number them here.
	seed uint64
}

// cell is one (scenario, variant) measurement, as a row function sees
// it.
type cell struct {
	p      Params // resolved
	sc     loadScenario
	v      variant
	si, vi int
	gen    load.Generator
	// cfg is the configuration of the cell's last run.
	cfg load.Config
	// sweep is the saturation sweep of a sweep grid. run is the
	// fixed-rate run of the others, and in a sweep grid with rerunAt the
	// follow-up run at that fraction of the knee — all zeros when the
	// sweep found no stable load to rerun at.
	sweep *load.SweepResult
	run   *load.Result
	// lift is the sweep's liftOf quantity over the scenario's baseline
	// variant: 1 on the baseline row, 0 when either sweep found no
	// stable load (or the baseline has not run yet).
	lift float64
	// head collects the experiment's headline values (headline.go); it
	// opens with the scenario parameters.
	head Values
}

// atKnee returns the run at the sweep's knee. A sweep with no stable
// load has none: its counters read zero, and -validate rejects a
// headline on the zero knee.
func (c *cell) atKnee() *load.Result {
	if kp := c.sweep.KneePoint(); kp != nil {
		return kp.Result
	}
	return &load.Result{}
}

// verdict annotates a knee row. A sweep unstable at its minimum load
// prints zeros beside it (SweepResult leaves the knee summary zero); a
// sweep that never saturated only bounds the capacity from below.
func (c *cell) verdict() string {
	switch {
	case c.sweep.KneePoint() == nil:
		return "UNSTABLE at min load"
	case c.sweep.Saturated:
		return "knee found"
	default:
		return "no saturation (knee ≥ cap)"
	}
}

// addRow appends one row of values to the table (sim.Table.AddValues).
type addRow func(values ...interface{})

// grid declares one traffic experiment.
type grid struct {
	// n and msgs are the default scale; msgsPerNode, for the sweeps,
	// defaults the message budget to that multiple of the resolved n
	// instead — deep enough for an overloaded hot node to push its
	// backlog well past the p99 bound, so the sweep can observe
	// saturation (an explicit -msgs is respected, but small values make
	// the knee a lower bound).
	n, msgs, msgsPerNode int
	title                func(Params) string
	columns              []string
	scenarios            []loadScenario
	// variants lists the treatments; nil is the single untreated one.
	variants func(Params) []variant
	// base applies the experiment's own settings to every cell's
	// resolved configuration, ahead of the variant's edit.
	base func(Params, *load.Config)
	// workload is the default generator (-workload overrides it, and the
	// title sees the resolved one) and seedBase the experiment's seed
	// block: scenario i's network is built from Seed+i and its runs are
	// seeded Seed+seedBase+i.
	workload string
	seedBase uint64
	// sweep makes each cell a load.Sweep (open-loop Poisson arrivals by
	// default; -arrival/-clients/-think select other models, -rate or
	// -clients the bracket minimum) with bisections halvings (0: the
	// sweep's default).
	sweep      bool
	bisections int
	// liftOf, in a sweep grid, is the quantity cell.lift compares, and
	// baseline the index of the variant it is compared against.
	liftOf   func(*load.SweepResult) float64
	baseline int
	// rerunAt, in a sweep grid, follows every sweep that found a knee
	// with one run at that fraction of it under the swept arrival family
	// (a closed-loop knee is a client count, so the fraction rounds to a
	// whole client); rerun edits that run's configuration, cell.cfg.
	rerunAt float64
	rerun   func(*cell)
	// planNote, when set, is the format of the note recording the
	// execution plan each cell's run resolved to; its arguments are the
	// variant label, the plan and the engine's reason.
	planNote string
	// row prints the cell and records its headline values.
	row func(c *cell, add addRow) error
}

func kneeThroughput(s *load.SweepResult) float64 { return s.KneeThroughput }
func kneeRate(s *load.SweepResult) float64       { return s.Knee }

// runTitle and sweepTitle format the usual scale suffixes of a
// fixed-rate and a sweep table: (n, ℓ, msgs, seed) and (n, ℓ, seed).
func runTitle(format string) func(Params) string {
	return func(p Params) string { return fmt.Sprintf(format, p.N, p.lgLinks(), p.Msgs, p.Seed) }
}

func sweepTitle(format string) func(Params) string {
	return func(p Params) string { return fmt.Sprintf(format, p.N, p.lgLinks(), p.Seed) }
}

// orOne defaults a zero penalty weight to 1.
func orOne(x float64) float64 {
	if x == 0 {
		return 1
	}
	return x
}

// replicaCount is the replica count k of the replication ladders:
// -replicas, or 4.
func (p Params) replicaCount() int {
	if p.Replicas <= 1 {
		return 4
	}
	return p.Replicas
}

// buildLoadGraph constructs the scenario's seeded network: a ring of n
// points for dim 1, a side²-torus of roughly n points for dim 2, with
// lg n long links per node at the dimension-harmonic exponent.
func buildLoadGraph(sc loadScenario, p Params, seed uint64) (*graph.Graph, error) {
	src := rng.New(seed)
	space := ringOf(p.N)
	if sc.dim >= 2 {
		side := int(math.Round(math.Sqrt(float64(p.N))))
		if side < 8 {
			side = 8
		}
		space = func() (metric.Space, error) { return metric.NewTorus(side, 2) }
	}
	g, err := ideal(space, p.lgLinks())(0, src)
	if err != nil || sc.failFrac == 0 {
		return g, err
	}
	_, err = crashFrac.apply(g, sc.failFrac, src.Derive(1))
	return g, err
}

// loadConfig resolves the load.Config the traffic flags describe — the
// one place Params becomes a Config, for fixed-rate runs and sweeps
// alike. -arrival/-rate/-clients/-think reshape the injection process;
// empty Arrival with zero Rate keeps the fixed-rate default. A
// combination the load layer cannot run (churn or PIT knobs without a
// live mode) fails with load.Config.Validate's error instead of
// silently running without it.
func loadConfig(p Params) (load.Config, error) {
	cfg := load.Config{
		Messages:     p.Msgs,
		Capacity:     p.Capacity,
		Rate:         p.Rate,
		Workers:      p.Workers,
		Shards:       p.Shards,
		DepthPenalty: p.DepthPenalty,
		Live:         p.Live || p.Aggregate || p.PIT,
		Aggregate:    p.Aggregate,
		PIT:          p.PIT,
		PITTimeout:   p.PITTimeout,
		PITWaiters:   p.PITWaiters,
		Route:        route.Options{DeadEnd: route.Backtrack},
		Telemetry:    p.Telemetry,
	}
	if p.Replicas > 1 || p.Cache > 0 {
		cfg.Replication = &replica.Options{K: p.Replicas, CacheThreshold: p.Cache}
	}
	// Any churn knob attaches node dynamics with repair on; the load
	// layer resolves the gossip defaults.
	if p.ChurnRate > 0 || p.KillFrac > 0 {
		cfg.Churn = failure.ChurnSpec{
			Rate:         p.ChurnRate,
			KillFrac:     p.KillFrac,
			KillAt:       p.KillAt,
			GossipFanout: p.GossipFanout,
			Repair:       true,
		}
	}
	if p.Arrival != "" {
		arr, err := load.NewArrival(p.Arrival, p.Rate, p.Clients, p.Think)
		if err != nil {
			return load.Config{}, err
		}
		cfg.Arrival = arr
	}
	return cfg, nil
}

// sweepConfig wraps a resolved configuration for load.Sweep, which owns
// the arrival process: -arrival names the swept family, and the bracket
// minimum is -rate for open-loop sweeps and -clients for closed-loop
// ones (zero lets the sweep pick its own).
func (gr *grid) sweepConfig(p Params, cfg load.Config) load.SweepConfig {
	model := p.Arrival
	if model == "" {
		model = "poisson"
	}
	min := p.Rate
	if model == "closed" || model == "closed-loop" {
		min = float64(p.Clients)
	}
	cfg.Arrival, cfg.Rate = nil, 0
	return load.SweepConfig{Config: cfg, Model: model, Think: p.Think, Min: min, Bisections: gr.bisections}
}

// run is the grid as an Experiment.Run.
func (gr *grid) run(p Params) (*sim.Table, error) {
	t, _, err := gr.measure(p)
	return t, err
}

// measure runs the grid: the table, and the headline values its rows
// recorded (a Headline.Measure for the experiments that own one).
func (gr *grid) measure(p Params) (*sim.Table, Values, error) {
	p = p.withDefaults(gr.n, 1, gr.msgs)
	if p.Msgs == 0 {
		p.Msgs = gr.msgsPerNode * p.N
	}
	if p.Workload == "" {
		p.Workload = gr.workload
	}
	t := sim.NewTable(gr.title(p), gr.columns...)
	head := scenarioValues(p)
	variants := []variant{{}}
	if gr.variants != nil {
		variants = gr.variants(p)
	}
	for si, sc := range gr.scenarios {
		var g *graph.Graph
		var base float64
		for vi, v := range variants {
			c := &cell{p: p, sc: sc, v: v, si: si, vi: vi, head: head}
			var err error
			if g == nil {
				if g, err = buildLoadGraph(sc, p, p.Seed+uint64(si)); err != nil {
					return nil, nil, err
				}
			}
			if c.gen, err = load.NewGenerator(p.Workload, p.Skew); err != nil {
				return nil, nil, err
			}
			if c.cfg, err = loadConfig(p); err != nil {
				return nil, nil, err
			}
			if gr.base != nil {
				gr.base(p, &c.cfg)
			}
			if v.edit != nil {
				v.edit(&c.cfg)
			}
			seed := p.Seed + gr.seedBase + uint64(si) + v.seed
			if gr.sweep {
				err = gr.sweepCell(c, g, seed, &base)
			} else {
				c.run, err = load.Run(g, c.gen, c.cfg, seed)
			}
			if err != nil {
				return nil, nil, err
			}
			if c.cfg.Churn.Enabled() {
				// The engine applied the churn to g; the next variant
				// starts from the scenario's network again.
				g = nil
			}
			if err := gr.row(c, t.AddValues); err != nil {
				return nil, nil, err
			}
			if gr.planNote != "" {
				r := c.run
				if r == nil {
					r = c.atKnee()
				}
				if r.Plan != "" {
					t.Note(gr.planNote, v.label, r.Plan, r.PlanReason)
				}
			}
		}
	}
	return t, head, nil
}

// sweepCell locates the cell's knee, its lift over the scenario's
// baseline (base carries that row's quantity across the variants), and
// runs the follow-up at rerunAt × knee.
func (gr *grid) sweepCell(c *cell, g *graph.Graph, seed uint64, base *float64) error {
	scfg := gr.sweepConfig(c.p, c.cfg)
	c.cfg = scfg.Config
	var err error
	if c.sweep, err = load.Sweep(g, c.gen, scfg, seed); err != nil {
		return err
	}
	stable := c.sweep.KneePoint() != nil
	if gr.liftOf != nil {
		q := gr.liftOf(c.sweep)
		switch {
		case c.vi == gr.baseline:
			*base = q
			if stable {
				c.lift = 1
			}
		case *base > 0:
			c.lift = q / *base
		}
	}
	if gr.rerunAt == 0 {
		return nil
	}
	c.run = &load.Result{}
	if !stable {
		return nil
	}
	at := float64(gr.rerunAt * c.sweep.Knee)
	if c.cfg.Arrival, err = load.NewArrival(scfg.Model, at, int(at+0.5), scfg.Think); err != nil {
		return err
	}
	if gr.rerun != nil {
		gr.rerun(c)
	}
	c.run, err = load.Run(g, c.gen, c.cfg, seed)
	return err
}
