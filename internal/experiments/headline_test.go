package experiments

import (
	"strings"
	"testing"
)

// TestHeadlineOwners pins which experiments own a headline and under
// which file name — the ids CI's bench-regression job selects.
func TestHeadlineOwners(t *testing.T) {
	want := map[string]string{
		"ext.load.policy":         "BENCH_load.json",
		"ext.saturation.policies": "BENCH_saturation.json",
		"ext.replica.flood":       "BENCH_replica.json",
		"ext.engine.flood":        "BENCH_engine.json",
		"ext.churn.recovery":      "BENCH_recovery.json",
	}
	for _, id := range IDs() {
		e, _ := Get(id)
		if e.Headline == nil {
			continue
		}
		if want[id] != e.Headline.File {
			t.Errorf("%s owns %q, want %q", id, e.Headline.File, want[id])
		}
		delete(want, id)
		seen := map[string]bool{}
		for _, f := range e.Headline.Fields {
			if seen[f.Name] {
				t.Errorf("%s: schema lists %q twice", id, f.Name)
			}
			seen[f.Name] = true
		}
		for _, f := range e.Headline.Fields {
			if f.AtLeast != "" && !seen[f.AtLeast] {
				t.Errorf("%s: %q must be at least %q, which the schema does not list", id, f.Name, f.AtLeast)
			}
		}
	}
	for id := range want {
		t.Errorf("%s owns no headline", id)
	}
}

// TestHeadlineJSONHoldsValuesToSchema: the writer refuses a measurement
// that lost a schema field or grew one the schema does not list, and a
// document it does write passes the validator reading the same schema.
func TestHeadlineJSONHoldsValuesToSchema(t *testing.T) {
	e, err := Get("ext.load.policy")
	if err != nil {
		t.Fatal(err)
	}
	_, v, err := e.Measure(Params{N: 256, Msgs: 200})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := e.HeadlineJSON(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckHeadline(doc); err != nil {
		t.Errorf("fresh headline rejected: %v\n%s", err, doc)
	}
	v["events_per_sec"] = 1.0
	if _, err := e.HeadlineJSON(v); err == nil || !strings.Contains(err.Error(), "events_per_sec") {
		t.Errorf("unlisted value: err = %v, want it named", err)
	}
	delete(v, "events_per_sec")
	delete(v, "mean_hops_aware")
	if _, err := e.HeadlineJSON(v); err == nil || !strings.Contains(err.Error(), "mean_hops_aware") {
		t.Errorf("missing value: err = %v, want it named", err)
	}
}
