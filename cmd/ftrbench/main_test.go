package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// headlineOwners are the experiments that own a BENCH_*.json, and the
// -only list CI's bench-regression job runs.
const headlineOwners = "ext.load.policy,ext.saturation.policies,ext.replica.flood,ext.engine.flood,ext.churn.recovery"

func TestRunWritesResults(t *testing.T) {
	dir := t.TempDir()
	var out, errOut strings.Builder
	code := run([]string{
		"-out", dir,
		"-only", "table1.nofail.detb,fig5b,ext.load.policy",
		"-n", "512", "-trials", "1", "-msgs", "20",
		"-csv",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	for _, f := range []string{
		"table1_nofail_detb.txt", "table1_nofail_detb.csv",
		"fig5b.txt", "fig5b.csv", "ext_load_policy.txt", "INDEX.txt",
	} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing output file %s: %v", f, err)
		}
	}
	index, err := os.ReadFile(filepath.Join(dir, "INDEX.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(index), "table1.nofail.detb") {
		t.Errorf("index missing experiment entry:\n%s", index)
	}
	if !strings.Contains(out.String(), "ok") {
		t.Errorf("stdout missing progress:\n%s", out.String())
	}
	var headline map[string]interface{}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_load.json"))
	if err != nil {
		t.Fatalf("missing BENCH_load.json: %v", err)
	}
	if err := json.Unmarshal(raw, &headline); err != nil {
		t.Fatalf("BENCH_load.json is not valid JSON: %v", err)
	}
	for _, key := range []string{
		"max_load_greedy", "max_load_aware",
		"max_mean_ratio_greedy", "max_mean_ratio_aware",
		"p99_latency_greedy", "p99_latency_aware",
	} {
		if _, ok := headline[key]; !ok {
			t.Errorf("BENCH_load.json missing %q:\n%s", key, raw)
		}
	}
	if !strings.Contains(string(index), "BENCH_load.json") {
		t.Errorf("index missing load headline entry:\n%s", index)
	}
}

// TestRunWritesNoHeadlineNobodyAskedFor: a headline is written exactly
// when the experiment that measures it ran — not when an experiment
// that merely shares its id prefix did.
func TestRunWritesNoHeadlineNobodyAskedFor(t *testing.T) {
	dir := t.TempDir()
	var out, errOut strings.Builder
	code := run([]string{
		"-out", dir,
		"-only", "fig5b,ext.load.workloads,ext.engine.modes",
		"-n", "512", "-trials", "1", "-msgs", "20",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	if stray, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json")); len(stray) > 0 {
		t.Errorf("a run without a headline's owning experiment wrote %v", stray)
	}
}

// TestHeadlinesAreTheirTablesRows is the single-source contract, over
// every headline the registry declares: running the owning experiment
// writes a file that carries every schema field, passes -validate, and
// whose every field with a table cell equals that cell at the table's
// printed precision.
func TestHeadlinesAreTheirTablesRows(t *testing.T) {
	dir := t.TempDir()
	var out, errOut strings.Builder
	if code := run([]string{"-out", dir, "-only", headlineOwners, "-n", "512", "-csv"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	for _, id := range experiments.IDs() {
		e, _ := experiments.Get(id)
		if e.Headline == nil {
			continue
		}
		if !strings.Contains(headlineOwners, id) {
			t.Errorf("%s owns %s but is missing from the CI -only list", id, e.Headline.File)
			continue
		}
		path := filepath.Join(dir, e.Headline.File)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s wrote no headline: %v", id, err)
			continue
		}
		var doc map[string]interface{}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Errorf("%s is not valid JSON: %v", e.Headline.File, err)
			continue
		}
		if doc["experiment"] != id {
			t.Errorf("%s names experiment %v, want %s", e.Headline.File, doc["experiment"], id)
		}
		tableCSV, err := os.ReadFile(filepath.Join(dir, strings.ReplaceAll(id, ".", "_")+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		r := csv.NewReader(bytes.NewReader(tableCSV))
		r.Comment = '#' // the table's notes
		records, err := r.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		columns := map[string]int{}
		for i, c := range records[0] {
			columns[c] = i
		}
		cells := 0
		for _, f := range e.Headline.Fields {
			v, ok := doc[f.Name]
			if !ok {
				t.Errorf("%s is missing schema field %q", e.Headline.File, f.Name)
			}
			if f.Col == "" {
				continue
			}
			cells++
			col, ok := columns[f.Col]
			if !ok {
				t.Errorf("%s: field %q points at column %q, which %s does not print", e.Headline.File, f.Name, f.Col, id)
				continue
			}
			if cell := records[1+f.Row][col]; sim.F(v) != cell {
				t.Errorf("%s: %q = %v, but %s row %d %q prints %s", e.Headline.File, f.Name, v, id, f.Row, f.Col, cell)
			}
		}
		if cells == 0 {
			t.Errorf("%s: no field is tied to a table cell", e.Headline.File)
		}
		out.Reset()
		errOut.Reset()
		if code := run([]string{"-validate", path}, &out, &errOut); code != 0 {
			t.Errorf("-validate rejected a fresh headline: %s", errOut.String())
		}
	}
}

// TestRunIsDeterministic: every file but INDEX.txt (a timestamp and
// per-experiment timings) is a function of the flags alone — headlines
// included, now that none carries a wall-clock field.
func TestRunIsDeterministic(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for _, dir := range dirs {
		var out, errOut strings.Builder
		code := run([]string{
			"-out", dir, "-only", "fig5b," + headlineOwners,
			"-n", "256", "-trials", "1", "-seed", "3", "-csv",
		}, &out, &errOut)
		if code != 0 {
			t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
		}
	}
	files, err := os.ReadDir(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1+2*6+5 { // INDEX.txt, six tables as txt and csv, five headlines
		t.Errorf("run wrote %d files, want 18", len(files))
	}
	for _, f := range files {
		if f.Name() == "INDEX.txt" {
			continue
		}
		first, err := os.ReadFile(filepath.Join(dirs[0], f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		second, err := os.ReadFile(filepath.Join(dirs[1], f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s differs between two runs with the same flags", f.Name())
		}
	}
}

// validDoc builds a well-formed headline for the experiment from its
// schema alone, every field at an unremarkable value its gate accepts;
// patch overrides fields, a nil value deleting the key.
func validDoc(t *testing.T, id string, patch map[string]interface{}) string {
	t.Helper()
	e, err := experiments.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	doc := map[string]interface{}{"experiment": id}
	for _, f := range e.Headline.Fields {
		switch f.Gate {
		case experiments.Text:
			doc[f.Name] = "x"
		case experiments.Flag:
			doc[f.Name] = false
		case experiments.NonNegative:
			doc[f.Name] = 0
		case experiments.Fraction:
			doc[f.Name] = 0.5
		case experiments.PositiveOrNever:
			doc[f.Name] = -1
		default:
			doc[f.Name] = 2
		}
	}
	for k, v := range patch {
		if v == nil {
			delete(doc, k)
		} else {
			doc[k] = v
		}
	}
	buf, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// validateCases writes each document to dir and requires -validate to
// exit with want.
func validateCases(t *testing.T, cases map[string]string, want int) {
	t.Helper()
	dir := t.TempDir()
	for name, content := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errOut strings.Builder
		if code := run([]string{"-validate", path}, &out, &errOut); code != want {
			t.Errorf("%s: exit = %d, want %d (stderr %q)", name, code, want, errOut.String())
		}
	}
}

type patch = map[string]interface{}

func TestValidateRejectsBrokenHeadlines(t *testing.T) {
	const sat, repl, eng, ld = "ext.saturation.policies", "ext.replica.flood", "ext.engine.flood", "ext.load.policy"
	var out, errOut strings.Builder
	if code := run([]string{"-validate", filepath.Join(t.TempDir(), "missing.json")}, &out, &errOut); code != 1 {
		t.Errorf("a file that does not exist: exit = %d, want 1", code)
	}
	validateCases(t, map[string]string{
		"garbage.json": "{not json",
		"zero.json":    validDoc(t, sat, patch{"knee_rate_greedy": 0}),
		// Scenario parameters alone are not a headline.
		"headless.json": `{"experiment":"ext.saturation.policies","n":512}`,
		"anon.json":     validDoc(t, sat, patch{"experiment": nil}),
		// The schema is looked up by experiment id: an id nothing
		// registers, and an experiment that owns no headline.
		"unknown.json":   `{"experiment":"x","knee_rate_greedy":1}`,
		"ownerless.json": `{"experiment":"ext.load.zipf","max_load_greedy":67}`,
		// Presence is part of the schema: a file that lost one field is
		// as broken as one that zeroed it, and a field the schema does
		// not list has no gate to pass.
		"absent.json":   validDoc(t, eng, patch{"knee_lift_pit": nil}),
		"stray.json":    validDoc(t, eng, patch{"events_per_sec_per_core": 1e6}),
		"mistyped.json": validDoc(t, eng, patch{"knee_rate_live": "fast"}),
		// The knee-vs-baseline gate: a knee throughput below the sweep's
		// own minimal-load throughput is a broken sweep, whether the
		// baseline is suffix-matched or file-wide.
		"sunkknee.json":  validDoc(t, sat, patch{"knee_throughput_greedy": 1.5, "baseline_throughput_greedy": 2.0}),
		"sunkknee2.json": validDoc(t, repl, patch{"knee_throughput_k4": 0.4, "baseline_throughput": 0.5}),
		// The response-path acceptance gate: a PIT knee-rate lift below 1
		// means suppression regressed the aggregation baseline.
		"sunklift.json": validDoc(t, eng, patch{"knee_rate_live_pit": 90, "knee_lift_pit": 0.9}),
	}, 1)
	validateCases(t, map[string]string{
		// A knee at its baseline passes; the load headline has no
		// baseline field at all.
		"atbase.json": validDoc(t, sat, patch{"knee_throughput_greedy": 2.0, "baseline_throughput_greedy": 2.0}),
		"nobase.json": validDoc(t, ld, nil),
		// pit_knee_saturated is a bool (no numeric gate applies despite
		// the "knee" in its name) and a zero expiry count is legitimate —
		// an answer can beat every interest's lifetime.
		"pitok.json": validDoc(t, eng, patch{"knee_rate_live_pit": 292, "pit_knee_saturated": false, "pit_expired": 0, "knee_lift_pit": 3.07}),
	}, 0)
	// One bad file fails the whole list even when another is fine.
	dir := t.TempDir()
	good, bad := filepath.Join(dir, "good.json"), filepath.Join(dir, "zero.json")
	if err := os.WriteFile(good, []byte(validDoc(t, sat, patch{"knee_rate_greedy": 2.5})), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte(validDoc(t, sat, patch{"knee_rate_greedy": 0})), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-validate", good}, &out, &errOut); code != 0 {
		t.Fatalf("good headline rejected: %s", errOut.String())
	}
	if code := run([]string{"-validate", good + "," + bad}, &out, &errOut); code != 1 {
		t.Error("a bad file in the list should fail validation")
	}
}

func TestRunExitsNonzeroWhenHeadlineWriteFails(t *testing.T) {
	dir := t.TempDir()
	// Occupy the headline paths with directories so WriteFile fails.
	for _, f := range []string{"BENCH_load.json", "BENCH_saturation.json"} {
		if err := os.MkdirAll(filepath.Join(dir, f), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	var out, errOut strings.Builder
	code := run([]string{
		"-out", dir,
		"-only", "ext.load.policy,ext.saturation.policies",
		"-n", "512", "-trials", "1", "-msgs", "40",
	}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 when headline writes fail (stderr %q)", code, errOut.String())
	}
	index, err := os.ReadFile(filepath.Join(dir, "INDEX.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"BENCH_load.json", "BENCH_saturation.json"} {
		if !strings.Contains(string(index), f) {
			t.Errorf("index missing failed headline %s:\n%s", f, index)
		}
	}
}

func TestRunUnknownOnly(t *testing.T) {
	dir := t.TempDir()
	var out, errOut strings.Builder
	code := run([]string{"-out", dir, "-only", "nope"}, &out, &errOut)
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "unknown id") {
		t.Errorf("stderr = %q", errOut.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-zzz"}, &out, &errOut); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
}

func TestValidateRecoverySection(t *testing.T) {
	// A complete, healthy churn-recovery headline; each bad case below
	// patches one field of it.
	wrap := func(p patch) string {
		doc := patch{
			"n": 1024, "links": 10, "messages": 4096, "seed": 1,
			"kill_frac": 0.3, "kill_at": 642.5, "recover_frac": 0.9,
			"knee_rate": 2.125, "pre_kill_throughput": 2.174, "floor_throughput": 1.0,
			"recovery_time": 37.5, "recovered_frac": 1.38,
			"baseline_recovery_time": -1.0, "baseline_recovered_frac": 0.62,
			"crashes": 307, "links_rebuilt": 705, "gossip_sends": 9892,
			"membership_lag": 11.0,
		}
		for k, v := range p {
			doc[k] = v
		}
		return validDoc(t, "ext.churn.recovery", doc)
	}
	validateCases(t, map[string]string{
		"good.json": wrap(nil),
		// A baseline that also recovered (slower) is legitimate.
		"baserec.json": wrap(patch{"baseline_recovery_time": 45.5}),
	}, 0)
	validateCases(t, map[string]string{
		// The recovery numbers are their own headline now: the engine
		// headline carrying them as a section is a stray field, whatever
		// its shape.
		"notobj.json":  validDoc(t, "ext.engine.flood", patch{"recovery": 5}),
		"section.json": validDoc(t, "ext.engine.flood", patch{"recovery": patch{"recovery_time": 37.5}}),
		// The headline gate: repair must recover, in finite positive time.
		"neverrec.json":  wrap(patch{"recovery_time": -1}),
		"zerorec.json":   wrap(patch{"recovery_time": 0}),
		"norectime.json": wrap(patch{"recovery_time": nil}),
		"lowfrac.json":   wrap(patch{"recovered_frac": 0.85}),
		// Scenario sanity.
		"killhigh.json":  wrap(patch{"kill_frac": 1.5}),
		"killzero.json":  wrap(patch{"kill_frac": 0}),
		"zeroknee.json":  wrap(patch{"knee_rate": 0}),
		"zeropre.json":   wrap(patch{"pre_kill_throughput": 0}),
		"negfloor.json":  wrap(patch{"floor_throughput": -0.1}),
		"badbase.json":   wrap(patch{"baseline_recovery_time": -2}),
		"fracrange.json": wrap(patch{"recover_frac": 0}),
		// The repair machinery must actually have run.
		"nocrash.json":   wrap(patch{"crashes": 0}),
		"norebuild.json": wrap(patch{"links_rebuilt": 0}),
		"nogossip.json":  wrap(patch{"gossip_sends": 0}),
		"fraccount.json": wrap(patch{"crashes": 3.5}),
	}, 1)
}
