package blobvet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// BaselineSchema is the format identifier a baseline file must carry.
// Bumping it invalidates every committed baseline at once, which is the
// point: baseline compatibility breaks loudly, never silently.
const BaselineSchema = "blobvet-baseline/v1"

// A Finding is one diagnostic in driver-portable form: positions resolved
// to repo-relative slash paths, severity and analyzer spelled out. It is
// both the -format=json output record and the baseline entry, so the two
// round-trip through the same parser.
type Finding struct {
	Analyzer string   `json:"analyzer"`
	Severity Severity `json:"severity"`
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Column   int      `json:"column,omitempty"`
	Message  string   `json:"message"`
}

// NewFinding resolves d against fset and makes the filename relative to
// root (slash-separated, so baselines are portable across machines). A
// file outside root keeps its absolute path.
func NewFinding(fset *token.FileSet, root string, d Diagnostic) Finding {
	pos := fset.Position(d.Pos)
	file := pos.Filename
	if root != "" {
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
	}
	return Finding{
		Analyzer: d.Analyzer,
		Severity: d.Severity,
		File:     filepath.ToSlash(file),
		Line:     pos.Line,
		Column:   pos.Column,
		Message:  d.Message,
	}
}

// key is the identity a baseline entry matches on. Line and column are
// deliberately excluded: unrelated edits shift line numbers constantly,
// and a baseline that rots on every edit trains people to regenerate it
// blindly. (analyzer, file, message) is stable and still specific —
// messages embed the offending identifier.
func (f Finding) key() string {
	return f.Analyzer + "\x00" + f.File + "\x00" + f.Message
}

// A Report is the JSON document shape shared by -format=json output and
// the committed baseline file.
type Report struct {
	Schema   string    `json:"schema"`
	Findings []Finding `json:"findings"`
}

// A Baseline suppresses a fixed set of pre-existing warn-level findings.
// Error-level entries may appear in a parsed report (the -format=json
// output includes them) but never suppress anything: errors must be fixed
// or carry a source-level allow directive.
//
// Entries are counted, not deduplicated: a key listed n times suppresses
// at most n findings, so one entry cannot hide a second identical
// warning added later.
type Baseline struct {
	entries []Finding      // every entry, in document order
	warn    map[string]int // warn entries per key
	spent   map[string]int // warn entries per key a finding has used
}

// ParseBaseline strictly decodes a baseline/report document. Any
// malformation — invalid JSON, unknown fields, wrong schema string, a
// missing analyzer/file/message, or an unknown severity — is an error;
// a broken baseline must never degrade into "no suppressions" silently.
func ParseBaseline(data []byte) (*Baseline, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rep Report
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("baseline: invalid JSON: %w", err)
	}
	// Trailing garbage after the document is as suspicious as a bad field.
	if dec.More() {
		return nil, fmt.Errorf("baseline: trailing data after JSON document")
	}
	if rep.Schema != BaselineSchema {
		return nil, fmt.Errorf("baseline: schema %q, want %q", rep.Schema, BaselineSchema)
	}
	b := &Baseline{entries: rep.Findings, warn: map[string]int{}, spent: map[string]int{}}
	for i, f := range rep.Findings {
		if f.Analyzer == "" || f.File == "" || f.Message == "" {
			return nil, fmt.Errorf("baseline: finding %d missing analyzer, file or message", i)
		}
		if f.Severity != SevError && f.Severity != SevWarn {
			return nil, fmt.Errorf("baseline: finding %d has unknown severity %q", i, f.Severity)
		}
		if f.Line < 0 || f.Column < 0 {
			return nil, fmt.Errorf("baseline: finding %d has negative position", i)
		}
		if f.Severity == SevWarn {
			b.warn[f.key()]++
		}
	}
	return b, nil
}

// Covers reports whether f is suppressed by the baseline, spending one
// matching entry if so. Only warn-severity findings are ever suppressed,
// and only by a warn-severity baseline entry not yet spent.
func (b *Baseline) Covers(f Finding) bool {
	if b == nil || f.Severity != SevWarn {
		return false
	}
	k := f.key()
	if b.spent[k] >= b.warn[k] {
		return false
	}
	b.spent[k]++
	return true
}

// Unused returns the warn entries no finding spent, sorted by file then
// line. Drivers surface these so a fixed warning is removed from the
// baseline instead of lingering as a stale suppression.
func (b *Baseline) Unused() []Finding {
	if b == nil {
		return nil
	}
	var out []Finding
	seen := map[string]int{}
	for _, f := range b.entries {
		if f.Severity != SevWarn {
			continue
		}
		k := f.key()
		if seen[k]++; seen[k] > b.spent[k] {
			out = append(out, f)
		}
	}
	sortFindings(out)
	return out
}

// Len returns the number of entries in the baseline, duplicates included.
func (b *Baseline) Len() int {
	if b == nil {
		return 0
	}
	return len(b.entries)
}

// MarshalReport renders findings as the canonical JSON document (sorted,
// indented, trailing newline) shared by -format=json and the baseline
// file.
func MarshalReport(findings []Finding) ([]byte, error) {
	findings = append([]Finding{}, findings...) // sort a copy; also turns nil into [], not null
	sortFindings(findings)
	data, err := json.MarshalIndent(Report{Schema: BaselineSchema, Findings: findings}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("baseline: encoding report: %w", err)
	}
	return append(data, '\n'), nil
}

// WarnOnly filters findings to the warn-severity subset — the only
// entries -write-baseline persists, since error findings must not be
// baselined away.
func WarnOnly(findings []Finding) []Finding {
	var out []Finding
	for _, f := range findings {
		if f.Severity == SevWarn {
			out = append(out, f)
		}
	}
	return out
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
