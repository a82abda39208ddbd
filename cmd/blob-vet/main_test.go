package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestTypeErrorFailsTheRun: a package that does not type-check (here an
// unused import) must not pass as clean even though no analyzer reports
// a finding on it — the run exits 2, like a load failure, and names the
// error.
func TestTypeErrorFailsTheRun(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"a/a.go": "// Package a is a blob-vet fixture that imports a package it never uses.\npackage a\n\nimport \"strings\"\n",
		"b/b.go": "// Package b is a blob-vet fixture with nothing for any analyzer to report.\npackage b\n",
	}
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := vet(root, true, analysis.All(), []string{"./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2\nstdout: %s\nstderr: %s", code, &stdout, &stderr)
	}
	if stdout.Len() != 0 {
		t.Fatalf("fixture has findings besides the type error:\n%s", &stdout)
	}
	if !strings.Contains(stderr.String(), `"strings" imported and not used`) {
		t.Fatalf("stderr does not name the type error:\n%s", &stderr)
	}
	stdout.Reset()
	stderr.Reset()
	if code := vet(root, true, analysis.All(), []string{"./b"}, &stdout, &stderr); code != 0 {
		t.Fatalf("clean package: exit %d, want 0\nstdout: %s\nstderr: %s", code, &stdout, &stderr)
	}
}
