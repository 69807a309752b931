// Command ftrbench regenerates every table and figure of the paper at
// the configured scale, writing one text file (and optionally CSV) per
// experiment into an output directory, plus an index summarizing the
// run. This is the one-shot "reproduce the evaluation section" tool.
// Any experiment failure or headline write failure makes the run exit
// nonzero, so CI can gate on it.
//
// Five experiments also own a machine-readable headline, written as
// BENCH_*.json next to the table it summarizes so the bench trajectory
// is recorded run over run: ext.load.policy (BENCH_load.json),
// ext.saturation.policies (BENCH_saturation.json), ext.replica.flood
// (BENCH_replica.json), ext.engine.flood (BENCH_engine.json) and
// ext.churn.recovery (BENCH_recovery.json). A headline is read off the
// results its experiment just printed — nothing is run a second time,
// and a run that does not select the experiment writes no headline.
// The schemas (field, unit, gate) live with the experiments, in
// internal/experiments; every value is virtual-time and deterministic
// in (n, msgs, seed), so two runs with the same flags write the same
// bytes. Wall-clock numbers — events per second, shard speed-up,
// barrier wait — are ftrmark's (bash ftrmark/run.sh), which repeats
// and stamps them.
//
// -validate checks previously written headline files against the
// schema of the experiment each one names: the file must parse, carry
// every schema field and no other, and pass every field's gate —
// metrics nonzero, knee throughputs at least their sweep's
// minimal-load baseline, lifts at least 1, and the churn headline
// actually recovering. The CI bench-regression job runs ftrbench, then
// ftrbench -validate, and uploads the headlines as artifacts.
//
// -cpuprofile/-memprofile write pprof profiles of the whole run
// (`go tool pprof ftrbench cpu.out`), the supported workflow for
// hunting engine hot spots at realistic scale; -shards partitions the
// experiments' live event loops across cores (results are identical
// for every value).
//
// Usage:
//
//	ftrbench [-out results] [-n 16384] [-trials 5] [-msgs 100] [-seed 1] [-csv] [-shards 4]
//	ftrbench -only ext.engine.flood -cpuprofile cpu.out -memprofile mem.out
//	ftrbench -validate results/BENCH_load.json,results/BENCH_engine.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ftrbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out        = fs.String("out", "results", "output directory")
		n          = fs.Int("n", 0, "network size override (0 = per-experiment default)")
		trials     = fs.Int("trials", 0, "trials override")
		msgs       = fs.Int("msgs", 0, "messages override")
		seed       = fs.Uint64("seed", 0, "rng seed (0 = 1)")
		csv        = fs.Bool("csv", false, "also write CSV files")
		only       = fs.String("only", "", "comma-separated experiment ids (default: all)")
		validate   = fs.String("validate", "", "comma-separated BENCH_*.json files to validate instead of running")
		shards     = fs.Int("shards", 0, "live event-loop shards for the experiments (0 = 1, the one-owner run; results are identical for every value)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof)")
		memprofile = fs.String("memprofile", "", "write a heap profile taken at the end of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *n < 0 || *trials < 0 || *msgs < 0 || *shards < 0 {
		fmt.Fprintln(stderr, "ftrbench: -n, -trials, -msgs and -shards must be non-negative")
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "ftrbench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "ftrbench:", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		// Taken after the run (and a forced GC) so the profile shows
		// retained structures, not transient garbage.
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "ftrbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "ftrbench:", err)
			}
		}()
	}
	if *validate != "" {
		code := 0
		for _, path := range strings.Split(*validate, ",") {
			path = strings.TrimSpace(path)
			raw, err := os.ReadFile(path)
			if err == nil {
				err = experiments.CheckHeadline(raw)
			}
			if err != nil {
				fmt.Fprintf(stderr, "ftrbench: %s: %v\n", path, err)
				code = 1
				continue
			}
			fmt.Fprintf(stdout, "%s ok\n", path)
		}
		return code
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "ftrbench:", err)
		return 1
	}
	ids := experiments.IDs()
	if *only != "" {
		ids = strings.Split(*only, ",")
	}
	params := experiments.Params{N: *n, Trials: *trials, Msgs: *msgs, Seed: *seed, Shards: *shards}

	var index strings.Builder
	fmt.Fprintf(&index, "ftrbench run %s\n", time.Now().Format(time.RFC3339))
	fmt.Fprintf(&index, "params: %+v\n\n", params)
	failed := 0
	for _, id := range ids {
		e, err := experiments.Get(strings.TrimSpace(id))
		if err != nil {
			fmt.Fprintln(stderr, "ftrbench:", err)
			failed++
			continue
		}
		start := time.Now()
		fmt.Fprintf(stdout, "running %-28s", e.ID)
		table, headline, err := e.Measure(params)
		if err != nil {
			fmt.Fprintf(stdout, " ERROR: %v\n", err)
			fmt.Fprintf(&index, "%-28s ERROR: %v\n", e.ID, err)
			failed++
			continue
		}
		elapsed := time.Since(start).Round(time.Millisecond)
		fmt.Fprintf(stdout, " ok (%s)\n", elapsed)
		fmt.Fprintf(&index, "%-28s ok  %-10s %s\n", e.ID, elapsed, e.Artifact)

		base := strings.ReplaceAll(e.ID, ".", "_")
		if err := writeTable(filepath.Join(*out, base+".txt"), table.String()); err != nil {
			fmt.Fprintln(stderr, "ftrbench:", err)
			return 1
		}
		if *csv {
			var b strings.Builder
			if err := table.WriteCSV(&b); err != nil {
				// A CSV marshalling failure must fail the run, not
				// silently drop the file.
				fmt.Fprintln(stderr, "ftrbench:", err)
				fmt.Fprintf(&index, "%-28s ERROR: %v\n", base+".csv", err)
				failed++
			} else if err := writeTable(filepath.Join(*out, base+".csv"), b.String()); err != nil {
				fmt.Fprintln(stderr, "ftrbench:", err)
				return 1
			}
		}
		if e.Headline == nil {
			continue
		}
		// A failed headline fails the run but not the remaining
		// experiments, and INDEX.txt names it.
		file := e.Headline.File
		buf, err := e.HeadlineJSON(headline)
		if err == nil {
			err = os.WriteFile(filepath.Join(*out, file), buf, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "ftrbench:", err)
			fmt.Fprintf(&index, "%-28s ERROR: %v\n", file, err)
			failed++
			continue
		}
		fmt.Fprintf(stdout, "wrote %s\n", file)
		fmt.Fprintf(&index, "%-28s ok  %-10s %s\n", file, "", e.Headline.Summary)
	}
	if err := writeTable(filepath.Join(*out, "INDEX.txt"), index.String()); err != nil {
		fmt.Fprintln(stderr, "ftrbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s/\n", *out)
	if failed > 0 {
		fmt.Fprintf(stderr, "ftrbench: %d experiment(s) failed\n", failed)
		return 1
	}
	return 0
}

func writeTable(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
