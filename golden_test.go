package repro_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// update re-records the golden from the current models:
//
//	go test -run TestExperimentsAllGolden -update .
var update = flag.Bool("update", false, "rewrite testdata/experiments-all.golden from the current models")

const goldenAll = "testdata/experiments-all.golden"

// TestExperimentsAllGolden pins every modeled output of the repository:
// the text of `gpu-blob -experiment all`, regenerated through the same
// experiments.RunAll call with gpu-blob's flag defaults (-step 1, -d 4096,
// no -csv). Any model change shows up here as a readable diff naming the
// sections it moved; re-record with -update only when the change is meant.
//
// The comparison is exact on every architecture. Go fuses x*y+z into one
// FMA on arm64 and some other targets, which moves a modeled time by a few
// ulps; scaling every modeled GPU time by 1±2⁻³⁰ or every CPU time by
// 1±2⁻⁴⁰ leaves this output byte-identical, so the printed precision
// absorbs fusion with a wide margin.
func TestExperimentsAllGolden(t *testing.T) {
	var buf bytes.Buffer
	opt := experiments.Options{Step: 1, MaxDim: 4096}
	if err := experiments.RunAll(context.Background(), &buf, opt); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(goldenAll, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenAll)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("modeled output differs from %s\n%s\nre-record with -update only if the change is intended",
			goldenAll, describeGoldenDiff(string(want), buf.String()))
	}
}

// describeGoldenDiff names the `=== id` sections whose text changed, and the
// first differing line with the section it falls in.
func describeGoldenDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	i := 0
	for i < len(wl) && i < len(gl) && wl[i] == gl[i] {
		i++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "changed sections: %s\n", strings.Join(changedSections(wl, gl), ", "))
	fmt.Fprintf(&b, "first difference at line %d, in section %s:\n", i+1, sectionAt(wl, i))
	fmt.Fprintf(&b, "  golden: %s\n  got:    %s", lineAt(wl, i), lineAt(gl, i))
	return b.String()
}

// sections maps each section ID to its text, and lists the IDs in order.
func sections(lines []string) (map[string]string, []string) {
	text := map[string]string{}
	var ids []string
	id := "(preamble)"
	for _, l := range lines {
		if h, ok := sectionID(l); ok {
			id = h
			ids = append(ids, id)
		}
		text[id] += l + "\n"
	}
	return text, ids
}

// sectionID returns the ID of a "=== id (title) ===" header line.
func sectionID(line string) (string, bool) {
	if f := strings.Fields(line); len(f) > 1 && f[0] == "===" {
		return f[1], true
	}
	return "", false
}

// changedSections lists the golden's sections that differ or are missing,
// then the sections only the new output has.
func changedSections(wl, gl []string) []string {
	wt, wids := sections(wl)
	gt, gids := sections(gl)
	var out []string
	for _, id := range wids {
		if g, ok := gt[id]; !ok {
			out = append(out, id+" (removed)")
		} else if g != wt[id] {
			out = append(out, id)
		}
	}
	for _, id := range gids {
		if _, ok := wt[id]; !ok {
			out = append(out, id+" (added)")
		}
	}
	return out
}

// sectionAt returns the ID of the section holding line i of the golden.
func sectionAt(lines []string, i int) string {
	if i >= len(lines) {
		i = len(lines) - 1
	}
	for ; i >= 0; i-- {
		if id, ok := sectionID(lines[i]); ok {
			return id
		}
	}
	return "(preamble)"
}

func lineAt(lines []string, i int) string {
	if i >= len(lines) {
		return "(end of output)"
	}
	return fmt.Sprintf("%q", lines[i])
}
