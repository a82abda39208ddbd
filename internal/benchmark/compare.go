package benchmark

import (
	"fmt"
	"io"
	"sort"
)

// DefaultNoiseThreshold is the relative band inside which a timing delta
// is considered noise. 15% is deliberately wide: these are wall-clock
// medians on shared CI hardware, and the gate exists to catch real
// regressions (algorithmic slowdowns, lost parallelism, accidental
// O(n^2)), not scheduler jitter.
const DefaultNoiseThreshold = 0.15

// Delta is one matched case across two artifacts.
type Delta struct {
	Name   string  `json:"name"`
	OldNs  float64 `json:"old_ns"`
	NewNs  float64 `json:"new_ns"`
	Ratio  float64 `json:"ratio"` // NewNs / OldNs; > 1 means slower
	Change string  `json:"change"`
}

// Report is the outcome of comparing two artifacts.
type Report struct {
	Threshold    float64 `json:"threshold"`
	OldTag       string  `json:"old_tag"`
	NewTag       string  `json:"new_tag"`
	Regressions  []Delta `json:"regressions"`
	Improvements []Delta `json:"improvements"`
	Unchanged    []Delta `json:"unchanged"`
	// OnlyOld lists cases that disappeared; a removed case can hide a
	// regression, so Regressed treats a non-empty OnlyOld as a failure
	// too. OnlyNew is informational (new coverage).
	OnlyOld []string `json:"only_old,omitempty"`
	OnlyNew []string `json:"only_new,omitempty"`
}

// Regressed reports whether the comparison should gate (non-zero exit).
func (r *Report) Regressed() bool {
	return len(r.Regressions) > 0 || len(r.OnlyOld) > 0
}

// Compare matches cases by name and classifies each delta against the
// noise threshold (DefaultNoiseThreshold when threshold <= 0). Artifacts
// must carry the same schema version as this binary — ReadArtifact
// enforces that on load — and must both be non-smoke or both smoke, since
// smoke sizes measure different work.
func Compare(old, next *Artifact, threshold float64) (*Report, error) {
	if threshold <= 0 {
		threshold = DefaultNoiseThreshold
	}
	if old.SchemaVersion != next.SchemaVersion {
		return nil, fmt.Errorf("%w: old v%d vs new v%d",
			ErrSchemaMismatch, old.SchemaVersion, next.SchemaVersion)
	}
	if old.Smoke != next.Smoke {
		return nil, ErrSmokeMismatch
	}
	rep := &Report{Threshold: threshold, OldTag: old.Tag, NewTag: next.Tag}

	oldByName := make(map[string]CaseResult, len(old.Cases))
	for _, c := range old.Cases {
		oldByName[c.Name] = c
	}
	matched := make(map[string]bool, len(old.Cases))
	for _, nc := range next.Cases {
		oc, ok := oldByName[nc.Name]
		if !ok {
			rep.OnlyNew = append(rep.OnlyNew, nc.Name)
			continue
		}
		matched[nc.Name] = true
		if oc.NsPerOp <= 0 || nc.NsPerOp <= 0 {
			return nil, fmt.Errorf("benchmark: case %s has a %w", nc.Name, ErrNonPositiveNs)
		}
		d := Delta{
			Name:  nc.Name,
			OldNs: oc.NsPerOp,
			NewNs: nc.NsPerOp,
			Ratio: nc.NsPerOp / oc.NsPerOp,
		}
		switch {
		case d.Ratio > 1+threshold:
			d.Change = "regression"
			rep.Regressions = append(rep.Regressions, d)
		case d.Ratio < 1-threshold:
			d.Change = "improvement"
			rep.Improvements = append(rep.Improvements, d)
		default:
			d.Change = "noise"
			rep.Unchanged = append(rep.Unchanged, d)
		}
	}
	for _, oc := range old.Cases {
		if !matched[oc.Name] {
			rep.OnlyOld = append(rep.OnlyOld, oc.Name)
		}
	}
	sort.Strings(rep.OnlyOld)
	sort.Strings(rep.OnlyNew)
	return rep, nil
}

// WriteText renders the report for humans, worst regression first.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "compare %s -> %s (noise band ±%.0f%%)\n", r.OldTag, r.NewTag, r.Threshold*100)
	byRatioDesc := func(ds []Delta) []Delta {
		out := append([]Delta(nil), ds...)
		sort.Slice(out, func(i, j int) bool { return out[i].Ratio > out[j].Ratio })
		return out
	}
	for _, d := range byRatioDesc(r.Regressions) {
		fmt.Fprintf(w, "  REGRESSION  %-40s %12.0f -> %12.0f ns/op  (%+.1f%%)\n",
			d.Name, d.OldNs, d.NewNs, (d.Ratio-1)*100)
	}
	for _, name := range r.OnlyOld {
		fmt.Fprintf(w, "  MISSING     %-40s present in old artifact only\n", name)
	}
	for _, d := range byRatioDesc(r.Improvements) {
		fmt.Fprintf(w, "  improvement %-40s %12.0f -> %12.0f ns/op  (%+.1f%%)\n",
			d.Name, d.OldNs, d.NewNs, (d.Ratio-1)*100)
	}
	fmt.Fprintf(w, "  %d regression(s), %d missing, %d improvement(s), %d within noise, %d new\n",
		len(r.Regressions), len(r.OnlyOld), len(r.Improvements), len(r.Unchanged), len(r.OnlyNew))
}
