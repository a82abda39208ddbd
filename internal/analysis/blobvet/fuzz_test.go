package blobvet

import (
	"testing"
)

// FuzzBaselineJSON hammers the strict baseline parser: on any input it
// must either return an error or a baseline that survives a
// marshal→reparse round trip. It must never panic, and it must never
// "succeed" on a document that is not schema-exact — a corrupted
// committed baseline silently degrading to zero suppressions would
// resurrect hundreds of findings (annoying), but one silently suppressing
// the wrong things would hide real violations (dangerous).
func FuzzBaselineJSON(f *testing.F) {
	seed, err := MarshalReport([]Finding{
		{Analyzer: "ctxflow", Severity: SevWarn, File: "internal/core/runner.go", Line: 42, Column: 3, Message: "loop never consults ctx"},
	})
	if err != nil {
		f.Fatalf("seed: %v", err)
	}
	f.Add(seed)
	f.Add([]byte(`{"schema": "blobvet-baseline/v1", "findings": []}`))
	f.Add([]byte(`{"schema": "blobvet-baseline/v0", "findings": []}`))
	f.Add([]byte(`{"findings": [{"analyzer": "", "severity": "warn", "file": "", "line": 0, "message": ""}]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"schema": "blobvet-baseline/v1", "findings": []}{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		bl, err := ParseBaseline(data)
		if err != nil {
			if bl != nil {
				t.Fatalf("ParseBaseline returned both a baseline and error %v", err)
			}
			return
		}
		// An accepted baseline must re-serialize and reparse to the same
		// entry count: acceptance implies canonical content.
		out, err := MarshalReport(bl.entries)
		if err != nil {
			t.Fatalf("accepted baseline failed to re-marshal: %v", err)
		}
		bl2, err := ParseBaseline(out)
		if err != nil {
			t.Fatalf("re-marshalled baseline rejected: %v\n%s", err, out)
		}
		if bl2.Len() != bl.Len() {
			t.Fatalf("round trip changed entry count: %d -> %d", bl.Len(), bl2.Len())
		}
	})
}
