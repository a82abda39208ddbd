package blobvet

import (
	"strings"
	"testing"
)

func TestBaselineRoundTrip(t *testing.T) {
	findings := []Finding{
		{Analyzer: "ctxflow", Severity: SevWarn, File: "internal/core/runner.go", Line: 42, Column: 3, Message: "loop never consults ctx"},
		{Analyzer: "hotalloc", Severity: SevError, File: "internal/blas/gemm32.go", Line: 7, Column: 1, Message: "composite literal in hot path"},
	}
	data, err := MarshalReport(findings)
	if err != nil {
		t.Fatalf("MarshalReport: %v", err)
	}
	bl, err := ParseBaseline(data)
	if err != nil {
		t.Fatalf("ParseBaseline(MarshalReport(...)): %v", err)
	}
	if bl.Len() != 2 {
		t.Fatalf("Len=%d, want 2", bl.Len())
	}
	// Warn entry suppresses the matching warn finding, even if the line moved.
	moved := findings[0]
	moved.Line = 99
	if !bl.Covers(moved) {
		t.Errorf("baseline should cover warn finding independent of line")
	}
	// Error findings are never suppressed, even when present in the document.
	if bl.Covers(findings[1]) {
		t.Errorf("baseline must never cover an error-severity finding")
	}
}

func TestBaselineUnused(t *testing.T) {
	findings := []Finding{
		{Analyzer: "ctxflow", Severity: SevWarn, File: "a.go", Line: 1, Message: "m1"},
		{Analyzer: "ctxflow", Severity: SevWarn, File: "b.go", Line: 1, Message: "m2"},
	}
	data, err := MarshalReport(findings)
	if err != nil {
		t.Fatalf("MarshalReport: %v", err)
	}
	bl, err := ParseBaseline(data)
	if err != nil {
		t.Fatalf("ParseBaseline: %v", err)
	}
	bl.Covers(findings[0])
	unused := bl.Unused()
	if len(unused) != 1 || unused[0].File != "b.go" {
		t.Errorf("Unused()=%v, want the b.go entry only", unused)
	}
}

// TestBaselineCountsEntries: identical entries are counted, so each one
// suppresses exactly one finding and reports as unused on its own.
func TestBaselineCountsEntries(t *testing.T) {
	w := Finding{Analyzer: "floatcompare", Severity: SevWarn, File: "a.go", Line: 3, Message: "exact float comparison"}
	parse := func(n int) *Baseline {
		t.Helper()
		entries := make([]Finding, n)
		for i := range entries {
			entries[i] = w
			entries[i].Line = 3 + i
		}
		data, err := MarshalReport(entries)
		if err != nil {
			t.Fatalf("MarshalReport: %v", err)
		}
		bl, err := ParseBaseline(data)
		if err != nil {
			t.Fatalf("ParseBaseline: %v", err)
		}
		return bl
	}

	// Two identical findings against one entry: one stays reported.
	bl := parse(1)
	if !bl.Covers(w) || bl.Covers(w) {
		t.Errorf("one entry must suppress exactly one of two identical findings")
	}
	if u := bl.Unused(); len(u) != 0 {
		t.Errorf("Unused()=%v, want none", u)
	}

	// Two entries against one finding: one entry is left unused.
	bl = parse(2)
	if bl.Len() != 2 {
		t.Errorf("Len=%d, want 2 (duplicates count)", bl.Len())
	}
	if !bl.Covers(w) {
		t.Errorf("baseline should cover the finding")
	}
	if u := bl.Unused(); len(u) != 1 || u[0].Line != 4 {
		t.Errorf("Unused()=%v, want the second entry only", u)
	}
}

func TestParseBaselineRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"invalid JSON":    `{"schema": "blobvet-baseline/v1", "findings": [`,
		"wrong schema":    `{"schema": "blobvet-baseline/v0", "findings": []}`,
		"missing schema":  `{"findings": []}`,
		"unknown field":   `{"schema": "blobvet-baseline/v1", "findings": [], "extra": 1}`,
		"missing message": `{"schema": "blobvet-baseline/v1", "findings": [{"analyzer": "x", "severity": "warn", "file": "a.go", "line": 1}]}`,
		"bad severity":    `{"schema": "blobvet-baseline/v1", "findings": [{"analyzer": "x", "severity": "fatal", "file": "a.go", "line": 1, "message": "m"}]}`,
		"negative line":   `{"schema": "blobvet-baseline/v1", "findings": [{"analyzer": "x", "severity": "warn", "file": "a.go", "line": -1, "message": "m"}]}`,
		"trailing data":   `{"schema": "blobvet-baseline/v1", "findings": []}{"again": true}`,
		"not an object":   `[1, 2, 3]`,
	}
	for name, doc := range cases {
		if _, err := ParseBaseline([]byte(doc)); err == nil {
			t.Errorf("%s: ParseBaseline accepted malformed document %s", name, doc)
		}
	}
}

func TestWarnOnly(t *testing.T) {
	findings := []Finding{
		{Analyzer: "a", Severity: SevError, File: "x.go", Line: 1, Message: "e"},
		{Analyzer: "b", Severity: SevWarn, File: "y.go", Line: 2, Message: "w"},
	}
	got := WarnOnly(findings)
	if len(got) != 1 || got[0].Severity != SevWarn {
		t.Errorf("WarnOnly=%v, want only the warn entry", got)
	}
}

func TestMarshalReportEmpty(t *testing.T) {
	data, err := MarshalReport(nil)
	if err != nil {
		t.Fatalf("MarshalReport(nil): %v", err)
	}
	if strings.Contains(string(data), "null") {
		t.Errorf("empty report must encode findings as [], got:\n%s", data)
	}
	if _, err := ParseBaseline(data); err != nil {
		t.Errorf("empty report must round-trip: %v", err)
	}
}

func TestNilBaseline(t *testing.T) {
	var bl *Baseline
	if bl.Covers(Finding{Analyzer: "a", Severity: SevWarn, File: "x.go", Message: "m"}) {
		t.Errorf("nil baseline must cover nothing")
	}
	if bl.Unused() != nil || bl.Len() != 0 {
		t.Errorf("nil baseline must be empty")
	}
}
