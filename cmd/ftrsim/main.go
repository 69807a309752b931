// Command ftrsim runs one reproduction experiment from the registry and
// prints its table.
//
// Usage:
//
//	ftrsim -list
//	ftrsim -exp fig6a [-n 131072] [-links 17] [-trials 1000] [-msgs 100] [-seed 1] [-csv]
//	ftrsim -exp fig6a -dim 2 -side 64   # the same sweep on a 64×64 torus
//	ftrsim -exp ext.load.policy -workload flood -capacity 2 # traffic & congestion
//	ftrsim -exp ext.saturation.knee                         # find the capacity knee
//	ftrsim -exp ext.saturation.knee -arrival closed -think 4
//	ftrsim -exp ext.replica.flood -replicas 8               # hot-key replication ladder
//	ftrsim -exp ext.load.policy -replicas 4 -cache 25       # replicate any traffic run
//	ftrsim -exp ext.engine.flood                            # snapshot vs live vs live+aggregate vs live+pit knees
//	ftrsim -exp ext.saturation.knee -live -aggregate        # any sweep on the live engine
//	ftrsim -exp ext.pit.suppression -pittimeout 16          # the response path's suppression ledger
//	ftrsim -exp ext.load.policy -live -churn 0.1            # traffic under live node churn
//	ftrsim -exp ext.churn.recovery -killfrac 0.3            # recovery after a correlated kill
//
// Defaults are scaled for quick runs; the flags restore the paper's
// scale (Figure 6 used n=2^17, 1000 simulations of 100 messages).
// -dim/-side select the metric space for the dimension-aware
// experiments (fig6*, fig7, ext.2d); the table header records the
// space, so text and CSV output carry the dimension.
// -workload/-skew/-capacity/-penalty/-depth parameterize the traffic
// experiments (internal/load);
// -arrival/-rate/-clients/-think select the arrival model — open-loop
// periodic or Poisson at -rate, or a closed loop of -clients with
// -think ticks between lookups — for both the fixed-rate experiments
// and the ext.saturation.* sweeps. -replicas/-cache turn on hot-key
// replication (internal/replica): k static replicas per key and/or
// popularity-triggered cache-on-path, routed to the nearest live copy.
//
// -live switches any traffic experiment to the discrete-event engine's
// live mode (internal/engine): messages advance hop-by-hop at their
// service completions and every forwarding decision — congestion
// penalties, queue-depth probes, nearest-replica targets — reads live
// state instead of a batch snapshot. -aggregate additionally coalesces
// same-key lookups that meet in a node's queue into one aggregated
// service (it implies -live). -pit switches on the pending-interest
// response path instead: every request service plants a pending
// interest, later same-key lookups park on it network-wide, and the
// answer retraces the reverse path, multicasting to every recorded
// waiter; -pittimeout and -pitwaiters tune the interest lifetime and
// the waiter-list bound (the ext.pit.* experiments switch the
// response path on themselves, so the knobs work there without
// -pit). Without the flags, the engine runs in
// snapshot mode, which reproduces the historical route-then-replay
// results byte-for-byte.
//
// -churn/-killfrac/-killat/-gossipfanout attach node dynamics to the
// live fixed-rate traffic experiments (internal/failure's ChurnSpec):
// nodes crash and rejoin as engine events on the same virtual clock as
// the traffic, failures are detected by probe timeout and disseminated
// by gossip membership, and repair redraws the §5 long-range links.
// Churn without -live is rejected by the load layer (snapshot mode
// routes whole paths against a static graph), and so is churn on a
// saturation sweep (ext.saturation.*): the events would change the
// graph every later load level runs on. Churn combines with
// -shards: membership mutations apply at the window barriers of the
// partitioned loop, which stays byte-identical to the sequential
// reference as long as the probe timeout covers one service time
// (faster probes fall back to the sequential loop).
//
// The engine experiments annotate their tables with the execution
// plan each run resolved to ("note: plan=... — ..."), so a -shards
// request that fell back to the sequential loop — caching, congestion
// feedback, or a fast churn probe — says so instead of silently
// running single-core.
//
// All traffic tables are byte-identical for a fixed seed regardless of
// worker count or machine.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/experiments"
	"repro/internal/mathx"
	"repro/internal/telemetry"
	"repro/internal/viz"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ftrsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list experiment ids and exit")
		exp      = fs.String("exp", "", "experiment id to run (see -list)")
		n        = fs.Int("n", 0, "network size (0 = experiment default)")
		dim      = fs.Int("dim", 0, "metric-space dimension: 1 = ring, >= 2 = torus (0 = experiment default)")
		side     = fs.Int("side", 0, "torus side length for -dim >= 2 (0 = derive from -n)")
		links    = fs.Int("links", 0, "long links per node (0 = lg n)")
		trials   = fs.Int("trials", 0, "independent networks (0 = experiment default)")
		msgs     = fs.Int("msgs", 0, "searches per network (0 = experiment default)")
		seed     = fs.Uint64("seed", 0, "rng seed (0 = 1)")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned text")
		workload = fs.String("workload", "", "traffic pattern of the traffic experiments: uniform, zipf, sources, flood (empty = experiment default)")
		skew     = fs.Float64("skew", 0, "Zipf exponent of skewed workloads (0 = 1.0)")
		capacity = fs.Float64("capacity", 0, "per-node service capacity in message-hops per virtual tick (0 = 1)")
		penalty  = fs.Float64("penalty", 0, "congestion-penalty weight of the load-aware policy (0 = 1)")
		depth    = fs.Float64("depth", 0, "instantaneous-queue-depth penalty of the depth-aware policy (0 = 1)")
		arrival  = fs.String("arrival", "", "arrival model for the traffic experiments: periodic, poisson, closed (empty = experiment default)")
		rate     = fs.Float64("rate", 0, "open-loop injection rate in messages per virtual tick (0 = experiment default)")
		clients  = fs.Int("clients", 0, "closed-loop client population for -arrival closed (0 = 16)")
		think    = fs.Float64("think", 0, "closed-loop think time in ticks between a client's lookups")
		replicas = fs.Int("replicas", 0, "hot-key replica count k for the traffic experiments (0/1 = no static replication)")
		cache    = fs.Int("cache", 0, "popularity threshold of cache-on-path replication (0 = experiment default / off)")
		live     = fs.Bool("live", false, "event-driven engine mode: forwarding decisions read live load/depth/replica state instead of batch snapshots")
		agg      = fs.Bool("aggregate", false, "coalesce same-key lookups queued at one node into a single aggregated service (implies -live)")
		pit      = fs.Bool("pit", false, "pending-interest response path: suppress same-key lookups network-wide behind a pending interest and answer along the reverse path (implies -live)")
		pitTO    = fs.Float64("pittimeout", 0, "interest lifetime in virtual ticks before a suppressed lookup re-forwards (0 = 64 service times)")
		pitWait  = fs.Int("pitwaiters", 0, "bound on one pending interest's waiter list; arrivals past it forward normally (0 = 16)")
		shards   = fs.Int("shards", 0, "partition the live event loop across this many cores (0 = 1, the sequential reference; results are identical for every value)")
		telem    = fs.String("telemetry", "", "record virtual-time telemetry to this file (JSONL, or CSV when the path ends in .csv) and print the window panel; observation only — tables are byte-identical with or without it")
		churn    = fs.Float64("churn", 0, "background churn rate in node lifecycle events per virtual tick, with gossip membership repair (requires -live; 0 = no background churn)")
		killFrac = fs.Float64("killfrac", 0, "crash this fraction of the alive nodes in one correlated regional kill (requires -live; 0 = no kill)")
		killAt   = fs.Float64("killat", 0, "virtual time of the -killfrac kill (0 = one third of the injection horizon)")
		fanout   = fs.Int("gossipfanout", 0, "membership rumor push fanout of churn repair (0 = 2)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		w := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
		for _, id := range experiments.IDs() {
			e, err := experiments.Get(id)
			if err != nil {
				fmt.Fprintln(stderr, "ftrsim:", err)
				return 1
			}
			fmt.Fprintf(w, "%s\t%s\n", e.ID, e.Artifact)
		}
		if err := w.Flush(); err != nil {
			fmt.Fprintln(stderr, "ftrsim:", err)
			return 1
		}
		return 0
	}
	if *exp == "" {
		fmt.Fprintln(stderr, "ftrsim: -exp required (or -list); e.g. ftrsim -exp fig6a")
		return 2
	}
	if *n < 0 || *links < 0 || *trials < 0 || *msgs < 0 {
		fmt.Fprintln(stderr, "ftrsim: -n, -links, -trials and -msgs must be non-negative")
		return 2
	}
	if *dim < 0 || *side < 0 {
		fmt.Fprintf(stderr, "ftrsim: -dim %d / -side %d must be non-negative\n", *dim, *side)
		return 2
	}
	if *side > 0 && *dim < 2 {
		fmt.Fprintln(stderr, "ftrsim: -side applies to -dim >= 2 only (1-D networks are sized with -n)")
		return 2
	}
	if *dim >= 2 && *side > 0 && *n > 0 && *n != mathx.IPow(*side, *dim) {
		fmt.Fprintf(stderr, "ftrsim: -n %d disagrees with -side^(-dim) = %d; drop one of them\n",
			*n, mathx.IPow(*side, *dim))
		return 2
	}
	if *skew < 0 || *capacity < 0 || *penalty < 0 || *depth < 0 {
		fmt.Fprintln(stderr, "ftrsim: -skew, -capacity, -penalty and -depth must be non-negative")
		return 2
	}
	if *rate < 0 || *clients < 0 || *think < 0 {
		fmt.Fprintln(stderr, "ftrsim: -rate, -clients and -think must be non-negative")
		return 2
	}
	if *replicas < 0 || *cache < 0 {
		fmt.Fprintln(stderr, "ftrsim: -replicas and -cache must be non-negative")
		return 2
	}
	if *shards < 0 {
		fmt.Fprintln(stderr, "ftrsim: -shards must be non-negative")
		return 2
	}
	if *pitTO < 0 || *pitWait < 0 {
		fmt.Fprintln(stderr, "ftrsim: -pittimeout and -pitwaiters must be non-negative")
		return 2
	}
	if *churn < 0 || *killAt < 0 || *fanout < 0 {
		fmt.Fprintln(stderr, "ftrsim: -churn, -killat and -gossipfanout must be non-negative")
		return 2
	}
	if *killFrac < 0 || *killFrac > 1 {
		fmt.Fprintf(stderr, "ftrsim: -killfrac %g must lie in [0, 1]\n", *killFrac)
		return 2
	}
	var tel *telemetry.Recorder
	if *telem != "" {
		tel = telemetry.New(telemetry.Options{})
	}
	table, err := experiments.Run(*exp, experiments.Params{
		N: *n, Dim: *dim, Side: *side, Links: *links, Trials: *trials, Msgs: *msgs, Seed: *seed,
		Workload: *workload, Skew: *skew, Capacity: *capacity, Penalty: *penalty,
		DepthPenalty: *depth, Arrival: *arrival, Rate: *rate, Clients: *clients, Think: *think,
		Replicas: *replicas, Cache: *cache, Live: *live, Aggregate: *agg, Shards: *shards,
		PIT: *pit, PITTimeout: *pitTO, PITWaiters: *pitWait,
		ChurnRate: *churn, KillFrac: *killFrac, KillAt: *killAt, GossipFanout: *fanout,
		Telemetry: tel,
	})
	if err != nil {
		fmt.Fprintln(stderr, "ftrsim:", err)
		return 1
	}
	if *csv {
		// The title carries the experiment parameters (space,
		// dimension, n, ℓ); emit it as a comment so CSV consumers keep
		// a plain header row.
		if table.Title != "" {
			fmt.Fprintf(stdout, "# %s\n", table.Title)
		}
		err = table.WriteCSV(stdout)
	} else {
		err = table.WriteText(stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "ftrsim:", err)
		return 1
	}
	if tel != nil {
		if err := writeTelemetry(tel, *telem); err != nil {
			fmt.Fprintln(stderr, "ftrsim:", err)
			return 1
		}
		printTelemetry(stdout, tel, *telem)
	}
	return 0
}

// writeTelemetry dumps the recorder to path: CSV when the extension
// says so, JSONL (runs, windows, worst flights) otherwise.
func writeTelemetry(tel *telemetry.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".csv") {
		err = tel.WriteCSV(f)
	} else {
		err = tel.WriteJSONL(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printTelemetry renders the busiest run's window panel and the
// worst-latency sampled flights after the experiment table.
func printTelemetry(stdout io.Writer, tel *telemetry.Recorder, path string) {
	label, names, series := tel.PanelSeries()
	fmt.Fprintf(stdout, "\ntelemetry: %d run(s) -> %s\n", len(tel.Runs()), path)
	if panel := viz.Timeline(names, series, 64); panel != "" {
		fmt.Fprintf(stdout, "windows (%s):\n%s", label, panel)
	}
	flights := tel.WorstFlights(0) // 0 = the recorder's default of 8
	if len(flights) == 0 {
		return
	}
	fmt.Fprintf(stdout, "worst sampled flights:\n")
	for _, f := range flights {
		fmt.Fprintf(stdout, "  run %d msg %d: latency %.3f hops %d served %s delivered %v\n",
			f.Run, f.Msg, f.Latency, len(f.Hops), f.Served, f.Delivered)
	}
}
