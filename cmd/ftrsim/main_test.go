package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	for _, id := range []string{"fig6a", "table1.nofail.l1", "ext.byzantine"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("list output missing %q", id)
		}
	}
}

func TestRunMissingExp(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "-exp required") {
		t.Errorf("stderr = %q", errOut.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-exp", "nope"}, &out, &errOut); code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "unknown id") {
		t.Errorf("stderr = %q", errOut.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-bogus"}, &out, &errOut); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
}

func TestRunDim2Sweep(t *testing.T) {
	args := []string{"-exp", "fig6a", "-dim", "2", "-side", "12", "-trials", "1", "-msgs", "10"}
	var out1, out2, errOut strings.Builder
	if code := run(args, &out1, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out1.String(), "torus d=2 side=12") {
		t.Errorf("2-D output must record the space:\n%s", out1.String())
	}
	if code := run(args, &out2, &errOut); code != 0 {
		t.Fatalf("second run exit = %d", code)
	}
	if out1.String() != out2.String() {
		t.Error("seeded 2-D sweep must be deterministic")
	}
}

func TestRunLoadExperiment(t *testing.T) {
	args := []string{"-exp", "ext.load.policy", "-n", "512", "-msgs", "80", "-workload", "flood", "-capacity", "2"}
	var out1, out2, errOut strings.Builder
	if code := run(args, &out1, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	for _, col := range []string{"max load", "mean load", "p99 lat", "flood"} {
		if !strings.Contains(out1.String(), col) {
			t.Errorf("load table missing %q:\n%s", col, out1.String())
		}
	}
	if code := run(args, &out2, &errOut); code != 0 {
		t.Fatalf("second run exit = %d", code)
	}
	if out1.String() != out2.String() {
		t.Error("seeded load experiment must be byte-identical across runs")
	}
}

func TestRunReplicaExperiment(t *testing.T) {
	// The flood ladder through the CLI, with the replica count and cache
	// threshold overridden via -replicas/-cache.
	args := []string{"-exp", "ext.replica.flood", "-n", "256", "-msgs", "120",
		"-replicas", "3", "-cache", "20"}
	var out1, out2, errOut strings.Builder
	if code := run(args, &out1, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"k=3", "k=3+cache", "knee", "lift"} {
		if !strings.Contains(out1.String(), want) {
			t.Errorf("replica table missing %q:\n%s", want, out1.String())
		}
	}
	if code := run(args, &out2, &errOut); code != 0 {
		t.Fatalf("second run exit = %d", code)
	}
	if out1.String() != out2.String() {
		t.Error("seeded replica experiment must be byte-identical across runs")
	}
}

func TestRunRejectsNegativeLoadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "ext.load.policy", "-skew", "-1"},
		{"-exp", "ext.load.policy", "-depth", "-1"},
		{"-exp", "ext.saturation.knee", "-rate", "-2"},
		{"-exp", "ext.saturation.knee", "-clients", "-3"},
		{"-exp", "ext.saturation.knee", "-think", "-0.5"},
		{"-exp", "ext.replica.flood", "-replicas", "-2"},
		{"-exp", "ext.replica.flood", "-cache", "-1"},
		{"-exp", "ext.load.policy", "-live", "-churn", "-0.1"},
		{"-exp", "ext.load.policy", "-live", "-killfrac", "-0.3"},
		{"-exp", "ext.load.policy", "-live", "-killfrac", "1.5"},
		{"-exp", "ext.load.policy", "-live", "-killat", "-10"},
		{"-exp", "ext.load.policy", "-live", "-gossipfanout", "-1"},
		{"-exp", "table1.nofail.multi", "-n", "-1024", "-trials", "2", "-msgs", "3"},
		{"-exp", "table1.nofail.multi", "-n", "1024", "-links", "-2", "-trials", "2", "-msgs", "3"},
		{"-exp", "table1.nofail.multi", "-n", "1024", "-trials", "-2", "-msgs", "3"},
		{"-exp", "table1.nofail.multi", "-n", "1024", "-trials", "2", "-msgs", "-3"},
	} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit = %d, want 2", args, code)
		}
	}
}

func TestRunChurnExperiment(t *testing.T) {
	// Live traffic with background churn and a correlated kill through
	// the CLI. The same args must be byte-identical across reruns, and
	// churn without -live must fail with the load layer's error.
	args := []string{"-exp", "ext.load.policy", "-n", "512", "-msgs", "200",
		"-live", "-churn", "0.05", "-killfrac", "0.2", "-killat", "40", "-gossipfanout", "3"}
	var out1, out2, errOut strings.Builder
	if code := run(args, &out1, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	for _, col := range []string{"max load", "p99 lat"} {
		if !strings.Contains(out1.String(), col) {
			t.Errorf("churn table missing %q:\n%s", col, out1.String())
		}
	}
	if code := run(args, &out2, &errOut); code != 0 {
		t.Fatalf("second run exit = %d", code)
	}
	if out1.String() != out2.String() {
		t.Error("seeded churn run must be byte-identical across reruns")
	}
	errOut.Reset()
	if code := run([]string{"-exp", "ext.load.policy", "-churn", "0.05"}, &out1, &errOut); code != 1 {
		t.Errorf("churn without -live should fail the experiment, got exit %d", code)
	}
	if !strings.Contains(errOut.String(), "live") {
		t.Errorf("stderr should explain the live requirement: %q", errOut.String())
	}
}

func TestRunRecoveryExperiment(t *testing.T) {
	args := []string{"-exp", "ext.churn.recovery", "-n", "512", "-msgs", "1024"}
	var out1, out2, errOut strings.Builder
	if code := run(args, &out1, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"repair on", "repair off (baseline)", "recovery time", "recovered"} {
		if !strings.Contains(out1.String(), want) {
			t.Errorf("recovery table missing %q:\n%s", want, out1.String())
		}
	}
	if code := run(args, &out2, &errOut); code != 0 {
		t.Fatalf("second run exit = %d", code)
	}
	if out1.String() != out2.String() {
		t.Error("seeded recovery experiment must be byte-identical across reruns")
	}
}

func TestRunSaturationExperiment(t *testing.T) {
	// The knee sweep through the CLI, with the arrival family switched
	// to the closed-loop model via -arrival/-clients/-think.
	args := []string{"-exp", "ext.saturation.knee", "-n", "256", "-msgs", "768",
		"-arrival", "closed", "-think", "2"}
	var out, errOut strings.Builder
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"offered", "throughput", "KNEE", "p99 lat"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("saturation table missing %q:\n%s", want, out.String())
		}
	}
	if code := run([]string{"-exp", "ext.saturation.knee", "-arrival", "bogus"}, &out, &errOut); code != 1 {
		t.Errorf("unknown arrival model should fail the experiment, got exit %d", code)
	}
}

func TestRunExperimentTextAndCSV(t *testing.T) {
	args := []string{"-exp", "table1.nofail.detb", "-n", "512", "-trials", "1", "-msgs", "20"}
	var text, errOut strings.Builder
	if code := run(args, &text, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(text.String(), "base b") {
		t.Errorf("text output missing header:\n%s", text.String())
	}
	var csv strings.Builder
	if code := run(append(args, "-csv"), &csv, &errOut); code != 0 {
		t.Fatalf("csv exit = %d", code)
	}
	if !strings.HasPrefix(csv.String(), "# ") || !strings.Contains(csv.String(), "\nbase b,") {
		t.Errorf("csv output must lead with the title comment then the header:\n%s", csv.String())
	}
}

func TestRunTelemetryJSONL(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "telemetry.jsonl")
	args := []string{"-exp", "ext.load.policy", "-n", "256", "-msgs", "256",
		"-live", "-shards", "2", "-seed", "7", "-telemetry", path}
	var out, errOut strings.Builder
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	// The panel and worst-flight summary follow the table.
	for _, want := range []string{"telemetry:", "windows (", "in-flight", "worst sampled flights:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	types := map[string]int{}
	for i, line := range lines {
		var rec map[string]interface{}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, line)
		}
		typ, _ := rec["type"].(string)
		types[typ]++
	}
	if types["run"] == 0 || types["window"] == 0 || types["flight"] == 0 {
		t.Errorf("record mix off: %v", types)
	}

	// Telemetry only observes: the table is byte-identical without it,
	// and the sampled-flight / window stream is itself deterministic.
	tableOf := func(s string) string { return strings.SplitN(s, "\ntelemetry:", 2)[0] }
	var plain, plainErr strings.Builder
	if code := run(args[:len(args)-2], &plain, &plainErr); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, plainErr.String())
	}
	if plain.String() != tableOf(out.String()) {
		t.Error("telemetry perturbed the experiment table")
	}
	path2 := filepath.Join(dir, "telemetry2.jsonl")
	var out2, errOut2 strings.Builder
	args2 := append(append([]string{}, args[:len(args)-1]...), path2)
	if code := run(args2, &out2, &errOut2); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut2.String())
	}
	data2, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	stripWall := regexp.MustCompile(`"wall_secs":[0-9.e-]+`)
	if !bytes.Equal(stripWall.ReplaceAll(data, nil), stripWall.ReplaceAll(data2, nil)) {
		t.Error("telemetry stream not deterministic net of wall-clock fields")
	}
}

func TestRunTelemetryCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "telemetry.csv")
	var out, errOut strings.Builder
	code := run([]string{"-exp", "ext.load.policy", "-n", "256", "-msgs", "128",
		"-telemetry", path}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatalf("CSV unparseable: %v", err)
	}
	if len(rows) < 2 {
		t.Fatalf("CSV has %d rows, want header + windows", len(rows))
	}
	if rows[0][0] != "run" {
		t.Errorf("header = %v", rows[0])
	}
}

func TestRunTelemetryUnwritablePath(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-exp", "ext.load.policy", "-n", "256", "-msgs", "64",
		"-telemetry", filepath.Join(t.TempDir(), "no", "such", "dir", "t.jsonl")}, &out, &errOut)
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if errOut.String() == "" {
		t.Error("expected an error on stderr")
	}
}
