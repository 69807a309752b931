package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles applies the same-seed bounds to two result files and
// prints one row per (metric, workload) with the ratio and its base. It
// reports whether anything regressed: an end-to-end median worse by
// more than its bound, a larger share of failed lookups, any
// virtual-time figure that differs at all, or a workload of the old
// file that the new one lacks.
func compareFiles(w io.Writer, oldPath, newPath string) (bool, error) {
	old, err := readResults(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := readResults(newPath)
	if err != nil {
		return false, err
	}
	// Virtual-time figures are functions of the inputs, and Trials and
	// Shards follow P, so only like-for-like files compare.
	if old.Seed != cur.Seed || old.Scale != cur.Scale || old.P != cur.P {
		return false, fmt.Errorf("not comparable: old has seed %d scale %g P %d, new has seed %d scale %g P %d",
			old.Seed, old.Scale, old.P, cur.Seed, cur.Scale, cur.P)
	}
	oldBy := make(map[string]*workloadResult)
	for _, r := range old.Workloads {
		oldBy[r.Name] = r
	}
	regressed := false
	fmt.Fprintf(w, "%-13s %-16s %-11s %9s  %s\n", "workload", "metric", "verdict", "new/old", "new, old")
	for _, n := range cur.Workloads {
		o, ok := oldBy[n.Name]
		if !ok {
			fmt.Fprintf(w, "%-13s absent from %s\n", n.Name, oldPath)
			continue
		}
		delete(oldBy, n.Name)
		for _, spec := range endToEndSpecs {
			a, inOld := o.EndToEnd[spec.Name]
			b, inNew := n.EndToEnd[spec.Name]
			if !inOld || !inNew {
				return false, fmt.Errorf("%s: %s is missing from a file (a traced-only run has no end-to-end section)", n.Name, spec.Name)
			}
			v := judge(spec, a.Median, b.Median)
			if hostTimed[spec.Name] && (o.Noisy || n.Noisy) && v != "unchanged" {
				v = "unresolved"
			}
			if v == "regressed" {
				regressed = true
			}
			fmt.Fprintf(w, "%-13s %-16s %-11s %9.4f  %.6g %s, %.6g %s (bound %g)\n",
				n.Name, spec.Name, v, ratio(b.Median, a.Median), b.Median, spec.Unit, a.Median, spec.Unit, spec.SameSeed)
		}
		for _, spec := range virtualSpecs {
			a, inOld := o.Virtual[spec.Name]
			b, inNew := n.Virtual[spec.Name]
			if inOld || inNew { // fig6_static has no virtual clock
				regressed = exact(w, n.Name, spec.Name, spec.Unit, a, b) || regressed
			}
		}
		regressed = exact(w, n.Name, "ops_per_rep", "count", perRep(o.Ops, o.Reps), perRep(n.Ops, n.Reps)) || regressed
		regressed = exact(w, n.Name, "undelivered_per_rep", "count", perRep(o.Undelivered, o.Reps), perRep(n.Undelivered, n.Reps)) || regressed
		if o.Digest != n.Digest {
			regressed = true
			fmt.Fprintf(w, "%-13s %-16s %-11s %9s  %s, %s\n", n.Name, "digest", "differs", "", n.Digest, o.Digest)
		}
		// Compare failure shares by cross-multiplying: exact in integers.
		if n.OpsFailed*o.Ops > o.OpsFailed*n.Ops {
			regressed = true
			fmt.Fprintf(w, "%-13s %-16s %-11s %9s  %d of %d, %d of %d\n", n.Name, "ops_failed", "regressed", "", n.OpsFailed, n.Ops, o.OpsFailed, o.Ops)
		}
	}
	for _, r := range old.Workloads {
		if _, dropped := oldBy[r.Name]; dropped {
			regressed = true
			fmt.Fprintf(w, "%-13s %-16s %-11s %9s  absent from %s\n", r.Name, "workload", "regressed", "", newPath)
		}
	}
	return regressed, nil
}

func ratio(cur, old float64) float64 {
	if old == 0 {
		return 0
	}
	return cur / old
}

func perRep(total, reps int) float64 {
	if reps == 0 {
		return float64(total)
	}
	return float64(total) / float64(reps)
}

// judge classifies the move from old to cur against the metric's
// same-seed bound.
func judge(spec metricSpec, old, cur float64) string {
	worse := cur - old
	if spec.Better == higher {
		worse = -worse
	}
	switch {
	case worse > spec.SameSeed*old:
		return "regressed"
	case -worse > spec.SameSeed*old:
		return "improved"
	}
	return "unchanged"
}

// exact prints a virtual-time row and reports whether it differs.
func exact(w io.Writer, workload, name, unit string, old, cur float64) bool {
	v := "identical"
	if old != cur {
		v = "differs"
	}
	fmt.Fprintf(w, "%-13s %-16s %-11s %9.4f  %.10g %s, %.10g %s (exact)\n", workload, name, v, ratio(cur, old), cur, unit, old, unit)
	return old != cur
}
