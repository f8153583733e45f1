package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"localalias/internal/client"
	"localalias/internal/obs"
	"localalias/internal/service"
)

// metricValue digs one counter's value out of a /v1/metrics JSON
// snapshot (the sum over its series). Missing metrics count as 0.
func metricValue(t *testing.T, doc map[string]any, name string) float64 {
	t.Helper()
	metrics, _ := doc["metrics"].([]any)
	var total float64
	for _, m := range metrics {
		mm := m.(map[string]any)
		if mm["name"] != name {
			continue
		}
		for _, s := range mm["series"].([]any) {
			sm := s.(map[string]any)
			if v, ok := sm["value"].(float64); ok {
				total += v
			}
		}
	}
	return total
}

func scrapeJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatalf("GET /v1/metrics: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("metrics content type = %q, want JSON", ct)
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("metrics body is not JSON: %v", err)
	}
	resp.Body.Close()
	return doc
}

func mustAnalyze(t *testing.T, c *client.Client, req service.AnalyzeRequest) client.Meta {
	t.Helper()
	_, meta, err := c.AnalyzeRaw(context.Background(), &req)
	if err != nil {
		t.Fatalf("AnalyzeRaw %s: %v", req.Module, err)
	}
	return meta
}

// TestMetricsEndpointShape: /v1/metrics serves the registry as JSON by
// default and as Prometheus text on request, and both carry the
// instruments this PR wires through the pipeline.
func TestMetricsEndpointShape(t *testing.T) {
	_, c := newTestServer(t, service.ServerOptions{})
	// Run one request so the request-scoped series exist.
	mustAnalyze(t, c, service.AnalyzeRequest{
		Module: "shape.mc", Source: service.CleanCheckSrc,
		Options: service.AnalyzeOptions{Mode: service.ModeCheck}})

	doc := scrapeJSON(t, c.BaseURL())
	for _, name := range []string{
		"lna_requests_total",
		"lna_analyze_seconds",
		"lna_phase_seconds",
		"lna_cache_hits_total",
		"lna_cache_misses_total",
		"lna_queue_depth",
		"lna_solve_total",
		"lna_solve_components_total",
		"lna_solve_component_size",
	} {
		metrics, _ := doc["metrics"].([]any)
		found := false
		for _, m := range metrics {
			if m.(map[string]any)["name"] == name {
				found = true
			}
		}
		if !found {
			t.Errorf("metric %s missing from /v1/metrics", name)
		}
	}

	// Prometheus exposition: via ?format= and via Accept.
	readAll := func(resp *http.Response) string {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return buf.String()
	}
	resp, err := http.Get(c.BaseURL() + "/v1/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("prometheus content type = %q", resp.Header.Get("Content-Type"))
	}
	body := readAll(resp)
	for _, want := range []string{"# TYPE lna_requests_total counter", "# TYPE lna_analyze_seconds histogram", "lna_analyze_seconds_bucket{le=\"+Inf\"}"} {
		if !strings.Contains(body, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
	req, _ := http.NewRequest("GET", c.BaseURL()+"/v1/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(resp); !strings.Contains(body, "# HELP") {
		t.Error("Accept: text/plain did not select the Prometheus form")
	}

	// Unknown formats are a client error in the canonical shape, not a
	// silent default.
	resp, err = http.Get(c.BaseURL() + "/v1/metrics?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	errBody := readAll(resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("format=xml status = %d, want 400", resp.StatusCode)
	}
	if werr := service.DecodeWireError(resp.StatusCode, []byte(errBody)); werr.Code != service.CodeBadRequest {
		t.Errorf("format=xml error code = %q, want %q", werr.Code, service.CodeBadRequest)
	}
}

// TestMetricsMonotonicUnderLoad hammers the server from many
// goroutines while scraping /v1/metrics concurrently, then checks the
// counters moved monotonically by exactly the submitted work. Run
// under -race this also proves the registry and the instrumented
// request path are data-race free.
func TestMetricsMonotonicUnderLoad(t *testing.T) {
	_, c := newTestServer(t, service.ServerOptions{Workers: 4, QueueDepth: 1 << 16})
	before := scrapeJSON(t, c.BaseURL())
	reqBefore := metricValue(t, before, "lna_http_requests_total")
	hitsBefore := metricValue(t, before, "lna_cache_hits_total")

	const workers, perWorker = 8, 10
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		last := reqBefore
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := metricValue(t, scrapeJSON(t, c.BaseURL()), "lna_http_requests_total")
			if cur < last {
				t.Errorf("lna_http_requests_total went backwards: %v -> %v", last, cur)
				return
			}
			last = cur
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Half the requests share one module (cache traffic),
				// half are distinct (engine traffic).
				mod := fmt.Sprintf("shared-%d.mc", w%2)
				meta := mustAnalyze(t, c, service.AnalyzeRequest{
					Module: mod, Source: service.CleanCheckSrc,
					Options: service.AnalyzeOptions{Mode: service.ModeCheck}})
				if meta.TraceID == "" {
					t.Error("response missing X-Lna-Trace header")
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-scraperDone

	after := scrapeJSON(t, c.BaseURL())
	total := workers * perWorker
	if got := metricValue(t, after, "lna_http_requests_total") - reqBefore; got != float64(total) {
		t.Errorf("lna_http_requests_total moved by %v, want %d", got, total)
	}
	// Two distinct cache keys, so all but two requests were hits.
	if got := metricValue(t, after, "lna_cache_hits_total") - hitsBefore; got != float64(total-2) {
		t.Errorf("lna_cache_hits_total moved by %v, want %d", got, total-2)
	}
}

// TestConcurrentMissesCoalesce: concurrent misses on one cache key run
// the engine once and the others replay its bytes as hits; when that
// run fails, one waiter runs the request again and the rest replay
// the retry.
func TestConcurrentMissesCoalesce(t *testing.T) {
	_, c := newTestServer(t, service.ServerOptions{Workers: 8, QueueDepth: 64})
	var runs sync.Map // module -> *atomic.Int32
	gate := make(chan struct{})
	service.SetTestAnalyzeHook(func(ctx context.Context, module string) {
		n, _ := runs.LoadOrStore(module, new(atomic.Int32))
		if n.(*atomic.Int32).Add(1) == 1 {
			<-gate // hold the first run until the others are waiting
			if module == "fails-first.mc" {
				panic("injected failure of the first run")
			}
		}
	})
	defer service.SetTestAnalyzeHook(nil)

	for _, module := range []string{"coalesced.mc", "fails-first.mc"} {
		const n = 6
		bodies := make([][]byte, n)
		metas := make([]client.Meta, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var err error
				bodies[i], metas[i], err = c.AnalyzeRaw(context.Background(), &service.AnalyzeRequest{
					Module: module, Source: service.CleanCheckSrc,
					Options: service.AnalyzeOptions{Mode: service.ModeCheck}})
				if err != nil {
					t.Errorf("%s: %v", module, err)
				}
			}(i)
		}
		time.Sleep(100 * time.Millisecond)
		close(gate)
		wg.Wait()
		gate = make(chan struct{})

		want, wantMisses := int32(1), 1
		if module == "fails-first.mc" {
			want, wantMisses = 2, 2
		}
		v, _ := runs.Load(module)
		if got := v.(*atomic.Int32).Load(); got != want {
			t.Errorf("%s: engine ran %d times, want %d", module, got, want)
		}
		misses, healthy := 0, map[string]bool{}
		for i, m := range metas {
			if m.Cache == "miss" {
				misses++
			}
			if !bytes.Contains(bodies[i], []byte(`"failure"`)) {
				healthy[string(bodies[i])] = true
			}
		}
		if misses != wantMisses || len(healthy) != 1 {
			t.Errorf("%s: %d misses and %d distinct healthy bodies, want %d and 1",
				module, misses, len(healthy), wantMisses)
		}
	}
}

// TestBatchTraceIDsUnique submits a 200-module batch and requires a
// distinct trace ID per entry plus an index-aligned per-item cache
// disposition header.
func TestBatchTraceIDsUnique(t *testing.T) {
	_, c := newTestServer(t, service.ServerOptions{})
	const n = 200
	reqs := make([]service.AnalyzeRequest, n)
	for i := range reqs {
		reqs[i] = service.AnalyzeRequest{
			Module: fmt.Sprintf("m%03d.mc", i), Source: service.CleanCheckSrc,
			Options: service.AnalyzeOptions{Mode: service.ModeCheck},
		}
	}
	// Prime one module so the batch sees both dispositions.
	mustAnalyze(t, c, reqs[0])

	out, meta, err := c.Batch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	dispositions := strings.Split(meta.Cache, ",")
	if len(out.Results) != n || len(dispositions) != n {
		t.Fatalf("got %d results, %d header dispositions, want %d", len(out.Results), len(dispositions), n)
	}
	seen := make(map[string]bool, n)
	for i, res := range out.Results {
		if len(res.TraceID) != 16 {
			t.Fatalf("entry %d: trace ID %q is not 16 hex chars", i, res.TraceID)
		}
		if seen[res.TraceID] {
			t.Fatalf("entry %d: duplicate trace ID %q", i, res.TraceID)
		}
		seen[res.TraceID] = true
		want := "miss"
		if res.Cached {
			want = "hit"
		}
		if dispositions[i] != want {
			t.Errorf("entry %d: header says %q, body says %q", i, dispositions[i], want)
		}
	}
	if !out.Results[0].Cached {
		t.Error("primed module should have been a cache hit")
	}
}

// TestAccessLogFormats: both renderings carry the fields an operator
// joins on (trace ID, cache disposition, phase timings), and cached
// responses stay byte-identical whether or not logging is on.
func TestAccessLogFormats(t *testing.T) {
	var textBuf, jsonBuf bytes.Buffer
	req := service.AnalyzeRequest{Module: "logged.mc", Source: service.CleanCheckSrc,
		Options: service.AnalyzeOptions{Mode: service.ModeCheck}}

	_, textC := newTestServer(t, service.ServerOptions{AccessLog: &textBuf, LogFormat: service.LogText})
	coldBody, _, err := textC.AnalyzeRaw(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	hitBody, _, err := textC.AnalyzeRaw(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldBody, hitBody) {
		t.Fatal("cached response bytes differ from cold run with logging enabled")
	}
	lines := strings.Split(strings.TrimSpace(textBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 text log lines, got %d:\n%s", len(lines), textBuf.String())
	}
	if !strings.Contains(lines[0], "cache=miss") || !strings.Contains(lines[0], "phases=") ||
		!strings.Contains(lines[0], "trace=") || !strings.Contains(lines[0], "module=logged.mc") {
		t.Errorf("cold text line missing fields: %s", lines[0])
	}
	if !strings.Contains(lines[1], "cache=hit") {
		t.Errorf("hit text line missing cache=hit: %s", lines[1])
	}

	_, jsonC := newTestServer(t, service.ServerOptions{AccessLog: &jsonBuf, LogFormat: service.LogJSON})
	meta := mustAnalyze(t, jsonC, req)
	var entry struct {
		Method string  `json:"method"`
		Path   string  `json:"path"`
		Status int     `json:"status"`
		DurMs  float64 `json:"dur_ms"`
		Trace  string  `json:"trace"`
		Cache  string  `json:"cache"`
		Module string  `json:"module"`
	}
	if err := json.Unmarshal(jsonBuf.Bytes(), &entry); err != nil {
		t.Fatalf("json log line: %v\n%s", err, jsonBuf.String())
	}
	if entry.Method != "POST" || entry.Path != "/v1/analyze" || entry.Status != 200 ||
		entry.Module != "logged.mc" || entry.Trace != meta.TraceID {
		t.Errorf("json log entry fields wrong: %+v (want trace %s)", entry, meta.TraceID)
	}
}

// TestPhasesHeaderNamesConfinePass: a cold qual request's X-Lna-Phases
// gives the confine second pass its own phases, and type checks once.
func TestPhasesHeaderNamesConfinePass(t *testing.T) {
	_, c := newTestServer(t, service.ServerOptions{})
	meta := mustAnalyze(t, c, service.AnalyzeRequest{
		Module: "phases.mc", Source: service.CleanCheckSrc,
		Options: service.AnalyzeOptions{Mode: service.ModeQual}})
	var names []string
	for _, p := range strings.Split(meta.Phases, ",") {
		name, _, _ := strings.Cut(p, ":")
		names = append(names, name)
	}
	want := "parse typecheck infer solve qual confine.plant confine.infer confine.solve"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("X-Lna-Phases phases %q, want %q", got, want)
	}
}

// TestEngineTracePhases: a traced request collects one span per
// executed phase plus the enclosing request span, all under one ID —
// and the trace is exportable as Chrome JSON.
func TestEngineTracePhases(t *testing.T) {
	ot := obs.NewTrace("traced.mc")
	resp := service.Analyze(t.Context(), &service.AnalyzeRequest{
		Module: "traced.mc", Source: service.CleanCheckSrc,
		Options: service.AnalyzeOptions{Mode: service.ModeQual},
		Obs:     ot,
	})
	if resp.Failure != nil {
		t.Fatalf("analysis failed: %v", resp.Failure)
	}
	spans := ot.Spans()
	names := make(map[string]int)
	for _, sp := range spans {
		names[sp.Name]++
	}
	for _, want := range []string{"parse", "typecheck", "infer", "solve", "qual", "analyze",
		"confine.plant", "confine.infer", "confine.solve"} {
		if names[want] == 0 {
			t.Errorf("trace missing %q span (got %v)", want, names)
		}
	}
	// The confine pass extends the first pass's typing: one check.
	if names["typecheck"] != 1 {
		t.Errorf("%d typecheck spans, want 1", names["typecheck"])
	}
	var buf bytes.Buffer
	if err := ot.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), ot.ID()) {
		t.Error("chrome export does not carry the trace ID")
	}
}
