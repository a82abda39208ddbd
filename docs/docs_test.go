// Package docs pins the reference documentation to the code it
// describes: every ```go fence must parse, every schema token and wire
// field named by the code must appear in the page that documents it,
// and every CLI flag the pages mention must still exist in the command
// sources. A doc that drifts from the contract fails `go test ./docs`.
package docs

import (
	"fmt"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/benchmark"
	"repro/internal/cluster"
	"repro/internal/netfault"
	"repro/internal/service"
	"repro/internal/sim/efftab"
)

func readDoc(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatalf("reading %s: %v", name, err)
	}
	return string(data)
}

// jsonFields walks a struct type (recursing into embedded structs) and
// returns every JSON wire name it serialises.
func jsonFields(t reflect.Type) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Anonymous && f.Type.Kind() == reflect.Struct {
			out = append(out, jsonFields(f.Type)...)
			continue
		}
		tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if tag != "" && tag != "-" {
			out = append(out, tag)
		}
	}
	return out
}

// TestAPIDocCoversWireContract: API.md must name every v1 schema token,
// every machine-readable error code, and every wire field of the
// request/response bodies it documents. Renaming a field or adding an
// endpoint without updating the reference fails here.
func TestAPIDocCoversWireContract(t *testing.T) {
	doc := readDoc(t, "API.md")
	for _, token := range []string{
		service.SchemaAdvise, service.SchemaThreshold, service.SchemaDispatch,
		service.SchemaHealth, service.SchemaReady, service.SchemaError,
	} {
		if !strings.Contains(doc, token) {
			t.Errorf("API.md does not mention schema token %q", token)
		}
	}
	codes := []string{
		"bad_request", "method_not_allowed", "not_found", "internal",
		"queue_full", "over_quota", "deadline_budget", "breaker_open",
		"shutting_down", "deadline_exceeded", "abandoned",
		"not_ready", "no_peer",
	}
	for _, c := range codes {
		if !strings.Contains(doc, "`"+c+"`") {
			t.Errorf("API.md does not document error code %q", c)
		}
	}
	wire := map[string]reflect.Type{
		"Envelope":          reflect.TypeOf(service.Envelope{}),
		"APIError":          reflect.TypeOf(service.APIError{}),
		"HealthBody":        reflect.TypeOf(service.HealthBody{}),
		"ReadyBody":         reflect.TypeOf(service.ReadyBody{}),
		"AdviseRequest":     reflect.TypeOf(service.AdviseRequest{}),
		"AdviseResponse":    reflect.TypeOf(service.AdviseResponse{}),
		"VerdictBody":       reflect.TypeOf(service.VerdictBody{}),
		"SummaryBody":       reflect.TypeOf(service.SummaryBody{}),
		"ThresholdRequest":  reflect.TypeOf(service.ThresholdRequest{}),
		"ThresholdResponse": reflect.TypeOf(service.ThresholdResponse{}),
		"DispatchRequest":   reflect.TypeOf(service.DispatchRequest{}),
		"DispatchResponse":  reflect.TypeOf(service.DispatchResponse{}),
		"DecisionBody":      reflect.TypeOf(service.DecisionBody{}),
	}
	for name, typ := range wire {
		for _, field := range jsonFields(typ) {
			if !strings.Contains(doc, field) {
				t.Errorf("API.md does not mention %s field %q", name, field)
			}
		}
	}
	for _, header := range []string{"X-API-Key", "X-Deadline-Ms", "X-Blob-Peer-Fill", "Retry-After"} {
		if !strings.Contains(doc, header) {
			t.Errorf("API.md does not mention the %s header", header)
		}
	}
}

// TestAPIDocCoversHedging: API.md must document the gateway's hedging
// route restriction (DESIGN.md §17), so the hedge contract cannot drift
// undocumented; its metrics are pinned by TestAPIDocCoversMetrics.
func TestAPIDocCoversHedging(t *testing.T) {
	if doc := readDoc(t, "API.md"); !strings.Contains(doc, "/v1/dispatch` is never hedged") {
		t.Error("API.md does not say /v1/dispatch is never hedged")
	}
}

// TestAPIDocCoversMetrics: every metric family a fresh replica and a
// fresh gateway render (read from their # TYPE lines) has a row in
// API.md's metrics table, so a new family cannot ship undocumented.
func TestAPIDocCoversMetrics(t *testing.T) {
	doc := readDoc(t, "API.md")
	svc := service.New(service.Options{})
	defer svc.Close()
	pool, err := cluster.NewGatewayPool(cluster.Options{Members: []cluster.Member{{Name: "rep-0", URL: "http://127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	families := 0
	for _, h := range []http.Handler{svc.Handler(), cluster.NewGateway(pool, cluster.GatewayOptions{}).Handler()} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			rest, ok := strings.CutPrefix(line, "# TYPE ")
			if !ok {
				continue
			}
			name, kind, _ := strings.Cut(rest, " ")
			families++
			if row := fmt.Sprintf("| `%s` | %s |", name, kind); !strings.Contains(doc, row) {
				t.Errorf("API.md has no metrics-table row starting %q", row)
			}
		}
	}
	if families < 30 {
		t.Fatalf("read only %d metric families from the two scrapes", families)
	}
}

// TestArtifactsDocCoversSchemas: ARTIFACTS.md must name every artifact
// schema token and the wire fields of the formats it documents.
func TestArtifactsDocCoversSchemas(t *testing.T) {
	doc := readDoc(t, "ARTIFACTS.md")
	tokens := []string{
		fmt.Sprintf(`"schema_version": %d`, benchmark.SchemaVersion),
		"blob-soak/v1",
		efftab.Schema,
		netfault.SchemaVersion,
	}
	for _, tok := range tokens {
		if !strings.Contains(doc, tok) {
			t.Errorf("ARTIFACTS.md does not mention schema token %q", tok)
		}
	}
	wire := map[string]reflect.Type{
		"benchmark.Artifact":   reflect.TypeOf(benchmark.Artifact{}),
		"benchmark.CaseResult": reflect.TypeOf(benchmark.CaseResult{}),
		"efftab.Table":         reflect.TypeOf(efftab.Table{}),
		"efftab.Series":        reflect.TypeOf(efftab.Series{}),
		"efftab.Point":         reflect.TypeOf(efftab.Point{}),
	}
	for name, typ := range wire {
		for _, field := range jsonFields(typ) {
			if !strings.Contains(doc, field) {
				t.Errorf("ARTIFACTS.md does not mention %s field %q", name, field)
			}
		}
	}
}

// TestDocFlagsExist cross-checks the CLI flags the docs mention against
// the command sources: a renamed flag fails here until the doc follows.
func TestDocFlagsExist(t *testing.T) {
	cases := []struct {
		doc, src string
		flags    []string
	}{
		{"ARTIFACTS.md", "../cmd/blob-bench/main.go", []string{"tag", "reps", "warmup", "smoke", "run", "compare"}},
		{"ARTIFACTS.md", "../cmd/blob-calibrate/calibrate.go", []string{"out", "threads", "repeats", "quick"}},
		{"ARTIFACTS.md", "../cmd/blob-calibrate/fidelity.go", []string{"dir", "report"}},
		{"ARTIFACTS.md", "../cmd/blob-threshold/main.go", []string{"checkpoint"}},
		{"API.md", "../cmd/blob-gateway/main.go", []string{"hedge", "hedge-after", "hedge-min", "hedge-max"}},
		{"API.md", "../cmd/blob-served/main.go", []string{"min-sweep-budget"}},
	}
	for _, tc := range cases {
		doc := readDoc(t, tc.doc)
		src := readDoc(t, tc.src)
		for _, f := range tc.flags {
			if !strings.Contains(doc, "`-"+f+"`") {
				t.Errorf("%s does not mention flag -%s", tc.doc, f)
			}
			if !strings.Contains(src, `"`+f+`"`) {
				t.Errorf("%s documents flag -%s but %s no longer declares it", tc.doc, f, tc.src)
			}
		}
	}
}

// TestDocSoakGateMatchesVerify: a soak command README.md or
// EXPERIMENTS.md labels as the CI/verify gate must be the one
// scripts/verify.sh runs, output path aside, so a reader who copies it
// runs the profiles the gate runs.
func TestDocSoakGateMatchesVerify(t *testing.T) {
	soakArgs := func(line string) []string {
		cmd, _, _ := strings.Cut(line, "#")
		fields := strings.Fields(cmd)
		for i, f := range fields {
			if f == "-o" {
				return fields[:i]
			}
		}
		return fields
	}
	var gate []string
	for _, line := range strings.Split(readDoc(t, "../scripts/verify.sh"), "\n") {
		if strings.HasPrefix(line, "go run ./cmd/blob-soak ") {
			if gate != nil {
				t.Fatal("scripts/verify.sh runs blob-soak twice; which one is the gate?")
			}
			gate = soakArgs(line)
		}
	}
	if gate == nil {
		t.Fatal("scripts/verify.sh no longer runs blob-soak")
	}
	for _, doc := range []string{"../README.md", "../EXPERIMENTS.md"} {
		labelled := 0
		for _, line := range strings.Split(readDoc(t, doc), "\n") {
			_, comment, _ := strings.Cut(line, "#")
			if !strings.Contains(line, "cmd/blob-soak") || !slices.Contains(strings.Fields(comment), "gate") {
				continue
			}
			labelled++
			if got := soakArgs(line); !reflect.DeepEqual(got, gate) {
				t.Errorf("%s calls %q the gate; scripts/verify.sh runs %q", doc, strings.Join(got, " "), strings.Join(gate, " "))
			}
		}
		if labelled == 0 {
			t.Errorf("%s no longer shows the soak gate command", doc)
		}
	}
}

// TestDocsGoFencesParse mirrors the repo-root docs gate for the pages
// under docs/: every ```go fence must parse as a file, a set of
// declarations, or a statement sequence.
func TestDocsGoFencesParse(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".md") {
			continue
		}
		doc := readDoc(t, e.Name())
		for _, f := range goFences(doc) {
			checked++
			if err := parseFragment(f.src); err != nil {
				t.Errorf("%s:%d: go fence does not parse: %v\n%s", e.Name(), f.line, err, f.src)
			}
		}
	}
	if checked == 0 {
		t.Error("no ```go fences found under docs/; the reference pages should show code")
	}
}

type fence struct {
	line int
	src  string
}

func goFences(md string) []fence {
	var out []fence
	lines := strings.Split(md, "\n")
	for i := 0; i < len(lines); i++ {
		if strings.TrimSpace(lines[i]) != "```go" {
			continue
		}
		start := i + 1
		var body []string
		for i++; i < len(lines) && strings.TrimSpace(lines[i]) != "```"; i++ {
			body = append(body, lines[i])
		}
		out = append(out, fence{line: start, src: strings.Join(body, "\n")})
	}
	return out
}

func parseFragment(src string) error {
	fset := token.NewFileSet()
	attempts := []string{
		src,
		"package p\n" + src,
		"package p\nfunc _() {\n" + src + "\n}",
	}
	var firstErr error
	for _, a := range attempts {
		if _, err := parser.ParseFile(fset, "fence.go", a, parser.SkipObjectResolution); err == nil {
			return nil
		} else if firstErr == nil {
			firstErr = err
		}
	}
	return fmt.Errorf("not a file, declarations, or statements (file reading: %v)", firstErr)
}
