package faultinject

import (
	"errors"
	"math"
	"testing"
)

// TestRuleMatching: backend/kernel/size-range selectors behave as
// documented, including the zero-value-matches-anything convention. Each
// rule is armed to always fire, so it fires exactly where it matches.
func TestRuleMatching(t *testing.T) {
	cases := []struct {
		name string
		rule Rule
		site Site
		want bool
	}{
		{"empty rule matches anything", Rule{}, Site{Backend: "gpu", Kernel: "gemm", Dim: 7}, true},
		{"backend match", Rule{Backend: "gpu"}, Site{Backend: "gpu"}, true},
		{"backend mismatch", Rule{Backend: "gpu"}, Site{Backend: "cpu"}, false},
		{"kernel match", Rule{Kernel: "gemv"}, Site{Backend: "cpu", Kernel: "gemv"}, true},
		{"kernel mismatch", Rule{Kernel: "gemv"}, Site{Backend: "cpu", Kernel: "gemm"}, false},
		{"below min_dim", Rule{MinDim: 100}, Site{Dim: 99}, false},
		{"at min_dim", Rule{MinDim: 100}, Site{Dim: 100}, true},
		{"at max_dim", Rule{MaxDim: 100}, Site{Dim: 100}, true},
		{"above max_dim", Rule{MaxDim: 100}, Site{Dim: 101}, false},
		{"zero max_dim is unbounded", Rule{MinDim: 1}, Site{Dim: 1 << 30}, true},
	}
	for _, tc := range cases {
		r := tc.rule
		r.Probability = 1
		_, err := (&Plan{Rules: []Rule{r}}).Arm().At(tc.site)
		if got := err != nil; got != tc.want {
			t.Errorf("%s: matches=%v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestDeterministicReplay: the same plan armed twice yields the same
// fault sequence for the same call sequence — the replayable-seed promise.
func TestDeterministicReplay(t *testing.T) {
	plan := &Plan{Seed: 42, Rules: []Rule{
		{Backend: BackendGPU, Probability: 0.3, Kind: Transient},
	}}
	run := func() []bool {
		in := plan.Arm()
		out := make([]bool, 0, 500)
		for i := 0; i < 500; i++ {
			_, err := in.At(Site{Backend: BackendGPU, Kernel: "gemm", Dim: i})
			out = append(out, err != nil)
		}
		return out
	}
	a, b := run(), run()
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: run A fired=%v, run B fired=%v — not replayable", i, a[i], b[i])
		}
		if a[i] {
			fired++
		}
	}
	// ~30% of 500 calls; a replayable PRNG far outside this band would
	// mean the probability draw is wrong, not unlucky.
	if fired < 100 || fired > 200 {
		t.Fatalf("30%% rule fired %d/500 times", fired)
	}
}

// TestKinds: each kind produces its documented effect and classification.
func TestKinds(t *testing.T) {
	site := Site{Backend: BackendCPU, Kernel: "gemm", Dim: 64}

	in := (&Plan{Rules: []Rule{{Kind: Transient, Probability: 1}}}).Arm()
	_, err := in.At(site)
	var fe *Error
	if !errors.As(err, &fe) || !fe.Transient() {
		t.Fatalf("transient rule: got %v, want transient *Error", err)
	}

	in = (&Plan{Rules: []Rule{{Kind: Hard, Probability: 1}}}).Arm()
	_, err = in.At(site)
	if !errors.As(err, &fe) || fe.Transient() {
		t.Fatalf("hard rule: got %v, want non-transient *Error", err)
	}

	in = (&Plan{Rules: []Rule{{Kind: Latency, Probability: 1, LatencySeconds: 0.25}}}).Arm()
	extra, err := in.At(site)
	if err != nil || math.Abs(extra-0.25) > 0 {
		t.Fatalf("latency rule: extra=%v err=%v, want 0.25, nil", extra, err)
	}

	in = (&Plan{Rules: []Rule{{Kind: PanicKind, Probability: 1}}}).Arm()
	func() {
		defer func() {
			if _, ok := recover().(*PanicFault); !ok {
				t.Fatalf("panic rule did not panic with *PanicFault")
			}
		}()
		_, _ = in.At(site)
	}()
}

// TestMaxHits: a bounded rule stops firing after its budget.
func TestMaxHits(t *testing.T) {
	in := (&Plan{Rules: []Rule{{Kind: Hard, Probability: 1, MaxHits: 2}}}).Arm()
	failures := 0
	for i := 0; i < 10; i++ {
		if _, err := in.At(Site{Backend: BackendGPU}); err != nil {
			failures++
		}
	}
	if failures != 2 {
		t.Fatalf("MaxHits 2 rule fired %d times", failures)
	}
}

// TestFirstMatchWins: rule order is significant.
func TestFirstMatchWins(t *testing.T) {
	in := (&Plan{Rules: []Rule{
		{Backend: BackendGPU, Kind: Latency, Probability: 1, LatencySeconds: 1},
		{Backend: BackendGPU, Kind: Hard, Probability: 1},
	}}).Arm()
	extra, err := in.At(Site{Backend: BackendGPU})
	if err != nil || extra != 1 {
		t.Fatalf("first rule should win: extra=%v err=%v", extra, err)
	}
}

// TestQuietPathAllocationFree: an armed injector whose rules do not match
// the site must not allocate — the "armed but quiet" overhead contract
// the retry-overhead benchmark case tracks.
func TestQuietPathAllocationFree(t *testing.T) {
	in := (&Plan{Seed: 1, Rules: []Rule{
		{Backend: BackendService, Probability: 1, Kind: Hard},
	}}).Arm()
	site := Site{Backend: BackendGPU, Kernel: "gemm", Dim: 512}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := in.At(site); err != nil {
			t.Fatal("quiet site fired")
		}
	})
	if allocs != 0 {
		t.Fatalf("quiet injection path allocates %.1f objects/op, want 0", allocs)
	}
	if s := in.Stats(); s.Evaluations < 1000 || s.Matches != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestPlanJSONRoundTrip: Marshal -> ParsePlan is the identity, and the
// schema rejects unknown fields and bad values.
func TestPlanJSONRoundTrip(t *testing.T) {
	p := &Plan{Seed: 7, Rules: []Rule{
		{Backend: BackendGPU, Kernel: "gemm", MinDim: 32, MaxDim: 4096, Probability: 0.3, Kind: Transient},
		{Backend: BackendXfer, Probability: 0.01, Kind: Latency, LatencySeconds: 0.002},
		{Backend: BackendService, Probability: 1, Kind: PanicKind, MaxHits: 1},
	}}
	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParsePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Seed != p.Seed || len(back.Rules) != len(p.Rules) {
		t.Fatalf("round trip lost data: %+v", back)
	}
	for i := range p.Rules {
		if back.Rules[i] != p.Rules[i] {
			t.Errorf("rule %d: %+v != %+v", i, back.Rules[i], p.Rules[i])
		}
	}

	if _, err := ParsePlan([]byte(`{"seed":1,"rules":[{"probabilty":0.5,"kind":"hard"}]}`)); err == nil {
		t.Error("misspelled field accepted")
	}
	if _, err := ParsePlan([]byte(`{"rules":[{"probability":2,"kind":"hard"}]}`)); err == nil {
		t.Error("probability 2 accepted")
	}
	if _, err := ParsePlan([]byte(`{"rules":[{"probability":0.5,"kind":"meteor"}]}`)); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := ParsePlan([]byte(`{"rules":[{"probability":0.5,"kind":"hard","min_dim":9,"max_dim":3}]}`)); err == nil {
		t.Error("inverted dim range accepted")
	}
	if _, err := ParsePlan([]byte(`{"rules":[{"probability":0.5,"kind":"hard","latency_seconds":1}]}`)); err == nil {
		t.Error("latency_seconds on a hard rule accepted")
	}
}

// TestParsePlanRejectsTrailingData: a plan file holds exactly one plan.
// A second plan after the first, or any other trailing bytes, must fail
// loudly instead of being dropped.
func TestParsePlanRejectsTrailingData(t *testing.T) {
	for name, body := range map[string]string{
		"second plan": `{"seed": 1, "rules": []} {"seed": 2, "rules": [{"probability": 1, "kind": "hard"}]}`,
		"garbage":     `{"seed": 1, "rules": []} garbage`,
		"stray brace": `{"seed": 1, "rules": []} }`,
	} {
		if p, err := ParsePlan([]byte(body)); !errors.Is(err, ErrBadPlan) {
			t.Errorf("%s: ParsePlan(%s) = %+v, %v; want ErrBadPlan", name, body, p, err)
		}
	}
	if _, err := ParsePlan([]byte("{\"seed\": 1, \"rules\": []}\n\t ")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}
