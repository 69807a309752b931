package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/load"
	"repro/internal/sim"
)

// A headline is the machine-readable summary of one experiment: the
// handful of numbers ftrbench records run over run as BENCH_*.json.
// The experiment that prints a scenario's table also owns its
// headline — Measure returns both from the same results, so a headline
// can neither drift from its table nor be written without the
// experiment having run — and the schema is data: one Field per JSON
// key, read by the writer (HeadlineJSON), by ftrbench -validate
// (CheckHeadline), and by the tests that hold each field to its table
// cell. Every headline is a deterministic function of the Params.

// Gate is the acceptance rule ftrbench -validate holds one headline
// field to.
type Gate int

const (
	Text            Gate = iota // a label, never gated
	Flag                        // a bool, never gated
	NonNegative                 // a quantity that may legitimately be zero
	Positive                    // a metric: zero means the run measured nothing
	PositiveInt                 // a count of things that must have happened
	Fraction                    // a share of a whole
	Lift                        // a ratio to a baseline the feature must not undercut
	PositiveOrNever             // a time, or the -1 "never happened" sentinel
)

// gateRules words each gate for the error message; check enforces it.
var gateRules = [...]string{
	Text:            "a string",
	Flag:            "a bool",
	NonNegative:     "a number ≥ 0",
	Positive:        "a number > 0",
	PositiveInt:     "an integer ≥ 1",
	Fraction:        "a number in (0, 1]",
	Lift:            "a number ≥ 1 (below 1 the feature regressed its own baseline)",
	PositiveOrNever: "a number > 0, or the -1 sentinel",
}

// Field is one key of a headline's schema.
type Field struct {
	// Name is the JSON key, Unit what its number counts.
	Name, Unit string
	Gate       Gate
	// AtLeast names another field of the same headline this one must
	// not undercut: a knee's throughput and its sweep's minimal-load
	// throughput (the knee is by definition the largest stable load), a
	// recovered fraction and its threshold.
	AtLeast string
	// Row and Col locate the cell of the owning experiment's table that
	// prints this value. Col is empty for scenario parameters and for
	// quantities the measurement holds but the table has no column for.
	Row int
	Col string
}

// Values carries one measured headline, keyed by Field.Name.
type Values map[string]interface{}

// Headline is the schema and the measurement of one BENCH_*.json.
type Headline struct {
	// File is the name ftrbench writes under -out; Summary its line in
	// INDEX.txt.
	File, Summary string
	Fields        []Field
	// Measure runs the owning experiment once and returns its table
	// together with a value for every field.
	Measure func(Params) (*sim.Table, Values, error)
}

// Measure runs the experiment once and returns its table together with
// its headline values — nil for the experiments that own no headline.
func (e Experiment) Measure(p Params) (*sim.Table, Values, error) {
	if e.Headline != nil {
		return e.Headline.Measure(p)
	}
	t, err := e.Run(p)
	return t, nil, err
}

// scenarioFields opens every schema with the parameters that reproduce
// the run; scenarioValues fills them from the resolved Params.
func scenarioFields(rest ...Field) []Field {
	return append([]Field{
		{Name: "n", Unit: "nodes", Gate: PositiveInt},
		{Name: "links", Unit: "long links/node", Gate: PositiveInt},
		{Name: "messages", Unit: "msgs", Gate: PositiveInt},
		{Name: "seed", Gate: PositiveInt},
	}, rest...)
}

func scenarioValues(p Params) Values {
	return Values{"n": p.N, "links": p.lgLinks(), "messages": p.Msgs, "seed": p.Seed}
}

// setKnee records one sweep's knee — the largest offered rate still
// keeping up and the rate delivered there — under the fields' common
// suffix. A sweep unstable at its minimum load records zeros, which
// -validate rejects.
func (v Values) setKnee(suffix string, s *load.SweepResult) {
	v["knee_rate_"+suffix] = s.Knee
	v["knee_throughput_"+suffix] = s.KneeThroughput
}

// unlisted returns the keys of doc that fields does not name, sorted.
func unlisted(doc map[string]interface{}, fields []Field) []string {
	listed := make(map[string]bool, len(fields))
	for _, f := range fields {
		listed[f.Name] = true
	}
	var stray []string
	for k := range doc {
		if !listed[k] {
			stray = append(stray, k)
		}
	}
	sort.Strings(stray)
	return stray
}

// HeadlineJSON renders the values e.Headline.Measure returned as the
// BENCH_*.json document: the experiment id, then every schema field in
// schema order. A value the schema does not list, or a field without a
// value, is an error — the schema is the file's whole contract.
func (e Experiment) HeadlineJSON(v Values) ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n  \"experiment\": %q", e.ID)
	for _, f := range e.Headline.Fields {
		val, ok := v[f.Name]
		if !ok {
			return nil, fmt.Errorf("%s measured no value for headline field %q", e.ID, f.Name)
		}
		buf, err := json.Marshal(val) // refuses NaN and ±Inf
		if err != nil {
			return nil, fmt.Errorf("%s headline field %q: %w", e.ID, f.Name, err)
		}
		fmt.Fprintf(&b, ",\n  %q: %s", f.Name, buf)
	}
	if stray := unlisted(v, e.Headline.Fields); len(stray) > 0 {
		return nil, fmt.Errorf("%s measured %q, which its headline schema does not list", e.ID, stray)
	}
	b.WriteString("\n}\n")
	return b.Bytes(), nil
}

// CheckHeadline validates one BENCH_*.json document against the schema
// of the experiment it names: it must parse (encoding/json itself
// refuses NaN and out-of-range numbers), name an experiment that owns
// a headline, carry every schema field and nothing else, and pass
// every field's gate.
func CheckHeadline(raw []byte) error {
	var doc map[string]interface{}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return err
	}
	id, ok := doc["experiment"].(string)
	if !ok {
		return errors.New("missing experiment id")
	}
	e, err := Get(id)
	if err != nil {
		return err
	}
	if e.Headline == nil {
		return fmt.Errorf("experiment %q owns no headline", id)
	}
	delete(doc, "experiment")
	for _, f := range e.Headline.Fields {
		if err := f.check(doc); err != nil {
			return fmt.Errorf("%s headline: %w", id, err)
		}
	}
	if stray := unlisted(doc, e.Headline.Fields); len(stray) > 0 {
		return fmt.Errorf("%s headline: fields %q are not in its schema", id, stray)
	}
	return nil
}

// check holds the field's value in doc to its gate and its AtLeast
// floor.
func (f Field) check(doc map[string]interface{}) error {
	v, present := doc[f.Name]
	if !present {
		return fmt.Errorf("field %q is missing", f.Name)
	}
	x, isNum := v.(float64)
	ok := isNum
	switch f.Gate {
	case Text:
		_, ok = v.(string)
	case Flag:
		_, ok = v.(bool)
	case NonNegative:
		ok = ok && x >= 0
	case Positive:
		ok = ok && x > 0
	case PositiveInt:
		ok = ok && x >= 1 && x == math.Trunc(x)
	case Fraction:
		ok = ok && x > 0 && x <= 1
	case Lift:
		ok = ok && x >= 1
	case PositiveOrNever:
		ok = ok && (x > 0 || x == -1)
	}
	if !ok {
		unit := ""
		if f.Unit != "" {
			unit = " [" + f.Unit + "]"
		}
		return fmt.Errorf("field %q%s = %v must be %s", f.Name, unit, v, gateRules[f.Gate])
	}
	// A floor that is itself malformed is reported by its own field.
	if floor, isNum := doc[f.AtLeast].(float64); isNum && x < floor {
		return fmt.Errorf("field %q = %g is below %q = %g", f.Name, x, f.AtLeast, floor)
	}
	return nil
}
