package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// TestChurnRecoveryRepairWins pins the ext.churn.recovery claim at the
// default scale: with gossip repair on, the network must climb back to
// ≥ RecoverFrac of its pre-kill flood-knee throughput in finite
// positive virtual time, faster than the never-repaired baseline, and
// the repair ledger must show the machinery actually ran.
func TestChurnRecoveryRepairWins(t *testing.T) {
	e, err := Get("ext.churn.recovery")
	if err != nil {
		t.Fatal(err)
	}
	tbl, v, err := e.Measure(Params{})
	if err != nil {
		t.Fatal(err)
	}
	num := func(key string) float64 {
		t.Helper()
		switch x := v[key].(type) {
		case float64:
			return x
		case int:
			return float64(x)
		}
		t.Fatalf("headline value %q = %v is not a number", key, v[key])
		return 0
	}
	if num("recovery_time") <= 0 {
		t.Errorf("repair on: recovery time %g, want finite positive", num("recovery_time"))
	}
	if num("recovered_frac") < RecoverFrac {
		t.Errorf("repair on: recovered fraction %g < %g", num("recovered_frac"), RecoverFrac)
	}
	if num("crashes") == 0 || num("links_rebuilt") == 0 || num("gossip_sends") == 0 {
		t.Errorf("repair on: empty repair ledger (crashes=%g rebuilt=%g gossip=%g)",
			num("crashes"), num("links_rebuilt"), num("gossip_sends"))
	}
	if !(num("pre_kill_throughput") > 0) || !(num("knee_rate") > 0) {
		t.Errorf("repair on: degenerate throughput profile (knee=%g preKill=%g)",
			num("knee_rate"), num("pre_kill_throughput"))
	}
	if rebuilt := tbl.Rows[1][7]; tbl.Columns[7] != "links rebuilt" || rebuilt != "0" {
		t.Errorf("repair off rebuilt %s links; the baseline must stay broken", rebuilt)
	}
	if off := num("baseline_recovery_time"); off > 0 && num("recovery_time") > off {
		t.Errorf("repair on recovered in %g ticks, slower than the unrepaired baseline's %g",
			num("recovery_time"), off)
	}
	if off := num("baseline_recovered_frac"); off > 0 && num("recovered_frac") < off {
		t.Errorf("repair on peaked at %g of pre-kill, below the baseline's %g",
			num("recovered_frac"), off)
	}
	// Same Params, same result: the measurement is deterministic.
	tbl2, v2, err := e.Measure(Params{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v, v2) || tbl.String() != tbl2.String() {
		t.Errorf("ext.churn.recovery is not deterministic: %+v vs %+v", v, v2)
	}
}

// TestChurnRecoveryExperimentTable runs the registered experiment and
// checks the table's shape and verdicts.
func TestChurnRecoveryExperimentTable(t *testing.T) {
	tbl, err := Run("ext.churn.recovery", Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("want 2 rows (repair on / off), got %d", len(tbl.Rows))
	}
	if !strings.Contains(tbl.Rows[0][0], "repair on") {
		t.Errorf("first row should be the repaired run: %v", tbl.Rows[0])
	}
	verdict := tbl.Rows[0][len(tbl.Rows[0])-1]
	if !strings.Contains(verdict, "recovered") {
		t.Errorf("repair-on verdict %q should report recovery", verdict)
	}
}
