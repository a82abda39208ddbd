package service

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"
)

// checkExposition fails t unless text is a well-formed Prometheus text
// exposition: every line is a HELP, TYPE or sample line; label values
// use only the \\, \" and \n escapes; the text is valid UTF-8; each
// family's HELP and TYPE appear once, before its samples; and no series
// repeats.
func checkExposition(t testing.TB, text string) {
	t.Helper()
	if !utf8.ValidString(text) {
		t.Fatalf("exposition is not valid UTF-8:\n%q", text)
	}
	if !strings.HasSuffix(text, "\n") {
		t.Fatalf("exposition does not end in a newline:\n%q", text)
	}
	helped := map[string]bool{}
	typed := map[string]string{}
	series := map[string]bool{}
	family := "" // the family whose TYPE line came last
	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		fail := func(why string) { t.Fatalf("line %d %q: %s", i+1, line, why) }
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			if !validMetricName(name) || helped[name] || typed[name] != "" {
				fail("bad, repeated or late HELP")
			}
			helped[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			if !helped[name] || typed[name] != "" {
				fail("TYPE without HELP, or repeated")
			}
			if !slices.Contains([]string{"counter", "gauge", "histogram"}, kind) {
				fail("unknown type")
			}
			typed[name], family = kind, name
			continue
		}
		name, labels, value, ok := splitSample(line)
		if !ok {
			fail("not a HELP, TYPE or sample line")
		}
		if name != family && !(typed[family] == "histogram" &&
			slices.Contains([]string{family + "_bucket", family + "_sum", family + "_count"}, name)) {
			fail("sample outside its family, or before its TYPE")
		}
		if series[name+labels] {
			fail("series repeated")
		}
		series[name+labels] = true
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			fail("bad value")
		}
	}
}

func validMetricName(s string) bool {
	for i, r := range s {
		if !(r == '_' || r == ':' || 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || i > 0 && '0' <= r && r <= '9') {
			return false
		}
	}
	return s != ""
}

// splitSample parses `name{l="v",...} value` or `name value`, checking
// every label value's escapes; labels is returned verbatim.
func splitSample(line string) (name, labels, value string, ok bool) {
	end := strings.IndexAny(line, "{ ")
	if end <= 0 || !validMetricName(line[:end]) {
		return "", "", "", false
	}
	name, rest := line[:end], line[end:]
	if strings.HasPrefix(rest, "{") {
		i := 1
		for {
			eq := strings.Index(rest[i:], `="`)
			if eq <= 0 || !validMetricName(rest[i:i+eq]) {
				return "", "", "", false
			}
			i += eq + 2
			for ; i < len(rest) && rest[i] != '"'; i++ {
				switch rest[i] {
				case '\n':
					return "", "", "", false
				case '\\':
					if i+1 == len(rest) || !strings.ContainsRune(`\"n`, rune(rest[i+1])) {
						return "", "", "", false
					}
					i++
				}
			}
			if i+1 >= len(rest) {
				return "", "", "", false
			}
			i++ // closing quote
			if rest[i] == '}' {
				break
			}
			if rest[i] != ',' {
				return "", "", "", false
			}
			i++
		}
		labels, rest = rest[:i+1], rest[i+1:]
	}
	value, ok = strings.CutPrefix(rest, " ")
	return name, labels, value, ok && value != "" && !strings.Contains(value, " ")
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestShedClientLabelsAreEscaped: X-API-Key is outside input and becomes
// the client label of blob_client_shed_total. Keys with a tab, invalid
// UTF-8, a quote and a backslash (all legal in an HTTP header) are shed
// with 429, and the scrape must still parse, with exactly the three
// legal escapes and U+FFFD in place of the invalid byte.
func TestShedClientLabelsAreEscaped(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, FairShareRate: 0.001, FairShareBurst: 1,
		Sweep: blockingSweep(releasedGate())})
	dim := 30
	for _, key := range []string{"a\tb", "caf\xff", `q"\x`} {
		headers := map[string]string{"X-API-Key": key}
		if resp, body := postJSONHeaders(t, ts.URL+"/v1/threshold", thresholdBody(dim), headers); resp.StatusCode != http.StatusOK {
			t.Fatalf("key %q burst request: status %d, body %s", key, resp.StatusCode, body)
		}
		assertRejection(t, ts.URL, thresholdBody(dim+2), headers, http.StatusTooManyRequests, "over_quota")
		dim += 4
	}
	text := scrape(t, ts.URL)
	checkExposition(t, text)
	var got []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "blob_client_shed_total") {
			got = append(got, line)
		}
	}
	want := []string{
		"blob_client_shed_total{client=\"a\tb\"} 1",
		"blob_client_shed_total{client=\"caf�\"} 1",
		`blob_client_shed_total{client="q\"\\x"} 1`,
	}
	if !slices.Equal(got, want) {
		t.Fatalf("client shed lines:\n%q\nwant\n%q", got, want)
	}
}

// TestClientShedCap: the per-client family holds at most maxShedClients
// names; later clients aggregate under "_other" while clients already
// seen keep their own series.
func TestClientShedCap(t *testing.T) {
	m := NewMetrics()
	for i := range maxShedClients + 10 {
		m.clientSheds.With(fmt.Sprint("client-", i)).Inc()
	}
	m.clientSheds.With("client-0").Inc()
	if got := m.clientSheds.With("client-0").Value(); got != 2 {
		t.Fatalf("client-0 = %d, want 2", got)
	}
	if got := m.clientSheds.With("_other").Value(); got != 10 {
		t.Fatalf("_other = %d, want 10", got)
	}
	if m.clientSheds.With("late") != m.clientSheds.With("_other") {
		t.Fatal("a client past the cap got its own series")
	}
	if got := len(m.clientSheds.f.children); got != maxShedClients+1 {
		t.Fatalf("%d client series, want %d", got, maxShedClients+1)
	}
}

// TestRegistryRendersInOrder: families in name order, children in
// sorted label-value order, labels in declaration order.
func TestRegistryRendersInOrder(t *testing.T) {
	r := &Registry{}
	v := r.CounterVec("b_total", "B.", "z", "a")
	v.With("y", "2").Add(3)
	v.With("x", "9").Inc()
	r.Counter("a_total", "A.").Inc()
	r.GaugeFunc("c_up", "C.", func(emit func(float64, ...string)) {
		emit(1, "p2")
		emit(0, "p1")
	}, "peer")
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_total A.
# TYPE a_total counter
a_total 1
# HELP b_total B.
# TYPE b_total counter
b_total{z="x",a="9"} 1
b_total{z="y",a="2"} 3
# HELP c_up C.
# TYPE c_up gauge
c_up{peer="p1"} 0
c_up{peer="p2"} 1
`
	if b.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", b.String(), want)
	}
	checkExposition(t, b.String())
}

// TestRequestPathAllocs: a known label set resolves with no allocation,
// so the per-request counter lookup costs one lock.
func TestRequestPathAllocs(t *testing.T) {
	m := NewMetrics()
	m.requests.With("/v1/advise", "200").Inc()
	if n := testing.AllocsPerRun(100, func() { m.requests.With("/v1/advise", "200").Inc() }); n != 0 {
		t.Fatalf("%v allocations per hit, want 0", n)
	}
}

// TestRegistryConcurrentUse: children created and bumped from several
// goroutines while scrapes render; run under -race by scripts/verify.sh.
func TestRegistryConcurrentUse(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range 200 {
				m.requests.With("/v1/advise", strconv.Itoa(200+i%4)).Inc()
				m.clientSheds.With(fmt.Sprint("client-", g, "-", i%50)).Inc()
				m.latency.With("/v1/advise").Observe(0.001)
			}
		}(g)
	}
	for range 20 {
		var b strings.Builder
		if _, err := m.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	var total int64
	for code := 200; code < 204; code++ {
		total += m.requests.With("/v1/advise", strconv.Itoa(code)).Value()
	}
	if total != 800 || m.latency.With("/v1/advise").total != 800 {
		t.Fatalf("requests %d, observations %d, want 800 each", total, m.latency.With("/v1/advise").total)
	}
}

// FuzzMetricsExposition feeds arbitrary label values through every
// labelled family of a replica's registry and a gauge read from a func,
// and checks the rendering line by line.
func FuzzMetricsExposition(f *testing.F) {
	for _, seed := range [][2]string{{"a\tb", "caf\xff"}, {`"`, `\`}, {"\n", ""}, {"\xff", "\xfe"}, {"_other", "�"}} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		m := NewMetrics()
		m.requests.With(a, b).Inc()
		m.latency.With(a).Observe(0.01)
		m.sheds.With(b).Inc()
		m.clientSheds.With(a).Inc()
		m.clientSheds.With(b).Inc()
		m.GaugeFunc("blob_fuzz_up", "Fuzzed gauge.", func(emit func(float64, ...string)) { emit(1, a) }, "peer")
		var out strings.Builder
		if _, err := m.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		text := out.String()
		checkExposition(t, text)
		// Each client label round-trips to its valid-UTF-8 form.
		clients := map[string]bool{}
		for _, line := range strings.Split(text, "\n") {
			if rest, ok := strings.CutPrefix(line, `blob_client_shed_total{client="`); ok {
				clients[unescapeLabel(rest[:strings.LastIndex(rest, `"}`)])] = true
			}
		}
		for _, v := range []string{a, b} {
			if !clients[strings.ToValidUTF8(v, "�")] {
				t.Fatalf("client %q missing from %v", v, clients)
			}
		}
	})
}

func unescapeLabel(s string) string {
	return strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n").Replace(s)
}
