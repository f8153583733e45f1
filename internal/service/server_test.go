// The daemon's wire-contract suite lives in package service_test and
// drives the server exclusively through internal/client — the same
// typed client the gateway, the CLI's remote mode, and the load
// harness use. The tests therefore pin the contract a real remote
// caller sees, not a hand-rolled approximation of it.
package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"localalias/internal/client"
	"localalias/internal/drivergen"
	"localalias/internal/service"
)

// newTestServer boots a daemon on an httptest listener and returns it
// with a client configured for fast retries (tests should not spend
// wall-clock on production backoff).
func newTestServer(t *testing.T, opts service.ServerOptions) (*service.Server, *client.Client) {
	t.Helper()
	s := service.NewServer(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := client.New(ts.URL, client.Options{
		Retry: client.RetryPolicy{MaxAttempts: 1},
	})
	return s, c
}

// rawPost bypasses the typed client for requests the client cannot (by
// design) produce: malformed JSON, wrong methods, unknown shapes.
func rawPost(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, buf.Bytes()
}

// wantAPIError asserts err is an *client.APIError with the given
// status and canonical code, and returns it.
func wantAPIError(t *testing.T, err error, status int, code string) *client.APIError {
	t.Helper()
	apiErr, ok := err.(*client.APIError)
	if !ok {
		t.Fatalf("error = %v (%T); want *client.APIError", err, err)
	}
	if apiErr.Status != status || apiErr.Err.Code != code {
		t.Fatalf("got status %d code %q; want %d %q", apiErr.Status, apiErr.Err.Code, status, code)
	}
	return apiErr
}

// TestServerAnalyzeRoundTrip: a cold request misses the cache, an
// identical resubmission hits it, and the hit's body is byte-identical
// to the cold run's — the wire contract the cache depends on.
func TestServerAnalyzeRoundTrip(t *testing.T) {
	_, c := newTestServer(t, service.ServerOptions{})
	req := service.AnalyzeRequest{Module: "clean.mc", Source: service.CleanCheckSrc,
		Options: service.AnalyzeOptions{Mode: service.ModeCheck}}

	coldBody, coldMeta, err := c.AnalyzeRaw(context.Background(), &req)
	if err != nil {
		t.Fatalf("cold AnalyzeRaw: %v", err)
	}
	if coldMeta.Cache != "miss" {
		t.Errorf("cold X-Lna-Cache = %q, want miss", coldMeta.Cache)
	}
	if want := service.CacheKey(&req); coldMeta.CacheKey != want {
		t.Errorf("X-Lna-Cache-Key = %q, want %q", coldMeta.CacheKey, want)
	}
	var parsed service.AnalyzeResponse
	if err := json.Unmarshal(coldBody, &parsed); err != nil {
		t.Fatalf("response is not an AnalyzeResponse: %v\n%s", err, coldBody)
	}
	if parsed.APIVersion != service.APIVersion || !parsed.OK || parsed.Module != "clean.mc" {
		t.Errorf("parsed response = %+v", parsed)
	}
	// The body must equal what the engine + canonical renderer produce
	// directly — the `lna check -json` equivalence.
	direct, err := service.Analyze(context.Background(), &req).MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldBody, direct) {
		t.Errorf("served bytes differ from MarshalCanonical:\n--- served\n%s\n--- direct\n%s", coldBody, direct)
	}

	warmBody, warmMeta, err := c.AnalyzeRaw(context.Background(), &req)
	if err != nil {
		t.Fatalf("warm AnalyzeRaw: %v", err)
	}
	if warmMeta.Cache != "hit" {
		t.Errorf("warm X-Lna-Cache = %q, want hit", warmMeta.Cache)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Error("cache hit served different bytes than the cold run")
	}
}

// TestServerValidation: malformed submissions are refused before they
// cost a worker slot, each with its canonical error code.
func TestServerValidation(t *testing.T) {
	_, c := newTestServer(t, service.ServerOptions{})
	cases := []struct {
		name string
		req  service.AnalyzeRequest
		code string
	}{
		{"empty source", service.AnalyzeRequest{Module: "m.mc",
			Options: service.AnalyzeOptions{Mode: service.ModeCheck}}, service.CodeBadRequest},
		{"bad mode", service.AnalyzeRequest{Module: "m.mc", Source: "fun f() {}",
			Options: service.AnalyzeOptions{Mode: "optimize"}}, service.CodeBadRequest},
		{"future api version", service.AnalyzeRequest{APIVersion: "v99", Module: "m.mc",
			Source: "fun f() {}", Options: service.AnalyzeOptions{Mode: service.ModeCheck}},
			service.CodeUnsupportedVersion},
	}
	for _, tc := range cases {
		_, _, err := c.Analyze(context.Background(), &tc.req)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		apiErr := wantAPIError(t, err, http.StatusBadRequest, tc.code)
		if apiErr.ExitCode() != service.ExitUsage {
			t.Errorf("%s: exit code %d, want %d", tc.name, apiErr.ExitCode(), service.ExitUsage)
		}
	}
	get, err := http.Get(c.BaseURL() + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 512)
	n, _ := get.Body.Read(body)
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/analyze status = %d, want 405", get.StatusCode)
	}
	if werr := service.DecodeWireError(get.StatusCode, body[:n]); werr.Code != service.CodeMethodNotAllowed {
		t.Errorf("GET error code = %q, want %q", werr.Code, service.CodeMethodNotAllowed)
	}
}

// TestServerErrorBodyShape: every refusal path answers the one
// canonical {"error": {"code", "message"}} shape — no ad-hoc strings.
func TestServerErrorBodyShape(t *testing.T) {
	s, c := newTestServer(t, service.ServerOptions{})
	url := c.BaseURL()
	checks := []struct {
		name   string
		do     func() (*http.Response, []byte)
		status int
		code   string
	}{
		{"malformed json", func() (*http.Response, []byte) {
			return rawPost(t, url+"/v1/analyze", "{not json")
		}, http.StatusBadRequest, service.CodeBadRequest},
		{"draining", func() (*http.Response, []byte) {
			s.SetDraining(true)
			defer s.SetDraining(false)
			return rawPost(t, url+"/v1/analyze", "{}")
		}, http.StatusServiceUnavailable, service.CodeDraining},
		{"empty batch", func() (*http.Response, []byte) {
			return rawPost(t, url+"/v1/batch", `{"requests":[]}`)
		}, http.StatusBadRequest, service.CodeBadRequest},
	}
	for _, tc := range checks {
		resp, body := tc.do()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		var eb service.ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == nil {
			t.Errorf("%s: body is not the canonical error shape: %s", tc.name, body)
			continue
		}
		if eb.Error.Code != tc.code {
			t.Errorf("%s: code = %q, want %q", tc.name, eb.Error.Code, tc.code)
		}
		if eb.Error.Message == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
		if want := service.StatusForCode(eb.Error.Code); want != resp.StatusCode {
			t.Errorf("%s: status %d disagrees with the code table's %d", tc.name, resp.StatusCode, want)
		}
	}
}

func corpusBatch(n int) []service.AnalyzeRequest {
	reqs := make([]service.AnalyzeRequest, 0, n)
	for _, spec := range drivergen.Corpus()[:n] {
		reqs = append(reqs, service.AnalyzeRequest{
			Module: spec.Name + ".mc",
			Source: spec.Source(),
		})
	}
	return reqs
}

// TestServerBatchCacheHitRate: submitting the same 20-module batch
// twice serves the second pass almost entirely from cache (the CI
// smoke criterion is >= 90%; identical submissions should hit 100%).
func TestServerBatchCacheHitRate(t *testing.T) {
	s, c := newTestServer(t, service.ServerOptions{Workers: 4})
	reqs := corpusBatch(20)

	var passes [2]*service.BatchResponse
	// The passes must run in order (a map range would randomize them,
	// making the hit-rate assertions flaky).
	for i := range passes {
		out, _, err := c.Batch(context.Background(), reqs)
		if err != nil {
			t.Fatalf("pass %d: %v", i+1, err)
		}
		passes[i] = out
	}
	first, second := passes[0], passes[1]
	if first.Summary.Modules != 20 || first.Summary.CacheMisses != 20 || first.Summary.Failures != 0 {
		t.Errorf("first pass summary = %+v; want 20 modules, all misses, no failures", first.Summary)
	}
	if second.Summary.CacheHits < 18 {
		t.Errorf("second pass cache hits = %d/20, want >= 18 (90%%)", second.Summary.CacheHits)
	}
	// A cached entry replays the cold pass's exact bytes.
	for i := range second.Results {
		if !second.Results[i].Cached {
			continue
		}
		if !bytes.Equal(first.Results[i].Response, second.Results[i].Response) {
			t.Errorf("entry %d: cache hit bytes differ from the cold run", i)
		}
	}
	if st := s.CacheStats(); st.Hits < 18 || st.Entries == 0 {
		t.Errorf("server cache stats = %+v", st)
	}
}

// TestServerLargeBatch: the server sustains a 200-module submission —
// every entry answered, none degraded, all distinct cache keys.
func TestServerLargeBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("200-module batch in -short mode")
	}
	_, c := newTestServer(t, service.ServerOptions{})
	out, _, err := c.Batch(context.Background(), corpusBatch(200))
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if out.Summary.Modules != 200 || len(out.Results) != 200 {
		t.Fatalf("summary = %+v, %d results; want 200", out.Summary, len(out.Results))
	}
	if out.Summary.Failures != 0 {
		t.Errorf("%d modules degraded in a healthy batch", out.Summary.Failures)
	}
	keys := make(map[string]bool, 200)
	for i, entry := range out.Results {
		if len(entry.Response) == 0 {
			t.Fatalf("entry %d has no response", i)
		}
		keys[entry.CacheKey] = true
	}
	if len(keys) != 200 {
		t.Errorf("%d distinct cache keys for 200 distinct modules", len(keys))
	}
}

// TestServerBatchPanicIsolation: one module panicking degrades only
// its own entry — the batch still answers 200 with a failure record in
// that slot, and the panicking module is never cached.
func TestServerBatchPanicIsolation(t *testing.T) {
	service.SetTestAnalyzeHook(func(ctx context.Context, module string) {
		if module == "bomb.mc" {
			panic("injected server fault")
		}
	})
	defer service.SetTestAnalyzeHook(nil)

	_, c := newTestServer(t, service.ServerOptions{Workers: 2})
	reqs := append(corpusBatch(2), service.AnalyzeRequest{
		Module: "bomb.mc", Source: service.CleanCheckSrc,
		Options: service.AnalyzeOptions{Mode: service.ModeCheck},
	})
	out, _, err := c.Batch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("batch with a panicking module: %v", err)
	}
	if out.Summary.Failures != 1 {
		t.Errorf("summary failures = %d, want 1", out.Summary.Failures)
	}
	for i, entry := range out.Results {
		var r service.AnalyzeResponse
		if err := json.Unmarshal(entry.Response, &r); err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if r.Module == "bomb.mc" {
			if r.Failure == nil || !strings.Contains(r.Failure.Message, "injected server fault") {
				t.Errorf("panicking module lacks its failure record: %+v", r.Failure)
			}
		} else if r.Failure != nil {
			t.Errorf("healthy module %s degraded by its neighbour: %v", r.Module, r.Failure)
		}
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Failures != 1 {
		t.Errorf("failure counter = %d, want 1", st.Failures)
	}
	// Failed responses are never cached: resubmitting the module (with
	// the hook gone) re-runs it and succeeds.
	service.SetTestAnalyzeHook(nil)
	resp, meta, err := c.Analyze(context.Background(), &reqs[2])
	if err != nil {
		t.Fatalf("resubmission: %v", err)
	}
	if meta.Cache != "miss" {
		t.Errorf("resubmitted failed module X-Lna-Cache = %q, want miss", meta.Cache)
	}
	if resp.Failure != nil || !resp.OK {
		t.Errorf("resubmission after the fault cleared = %+v", resp)
	}
}

// TestServerBatchLimits: empty and oversized batches are rejected with
// the canonical bad_request error.
func TestServerBatchLimits(t *testing.T) {
	_, c := newTestServer(t, service.ServerOptions{})
	for _, tc := range []struct {
		name string
		n    int
	}{{"empty", 0}, {"oversized", service.MaxBatch + 1}} {
		reqs := make([]service.AnalyzeRequest, tc.n)
		for i := range reqs {
			reqs[i] = service.AnalyzeRequest{Module: fmt.Sprintf("m%d.mc", i), Source: "fun f() {}"}
		}
		_, _, err := c.Batch(context.Background(), reqs)
		if err == nil {
			t.Errorf("%s batch accepted", tc.name)
			continue
		}
		wantAPIError(t, err, http.StatusBadRequest, service.CodeBadRequest)
	}
}

// TestServerBatchPerEntryAdmission: a batch mixing healthy and
// inadmissible modules answers 200 with per-entry errors in the bad
// slots — the batch never fails whole for one bad request.
func TestServerBatchPerEntryAdmission(t *testing.T) {
	_, c := newTestServer(t, service.ServerOptions{Workers: 2})
	reqs := []service.AnalyzeRequest{
		{Module: "ok1.mc", Source: service.CleanCheckSrc, Options: service.AnalyzeOptions{Mode: service.ModeCheck}},
		{Module: "no-source.mc", Options: service.AnalyzeOptions{Mode: service.ModeCheck}},
		{Module: "bad-mode.mc", Source: service.CleanCheckSrc, Options: service.AnalyzeOptions{Mode: "optimize"}},
		{Module: "old-client.mc", Source: service.CleanCheckSrc, APIVersion: "v0",
			Options: service.AnalyzeOptions{Mode: service.ModeCheck}},
		{Module: "ok2.mc", Source: service.CleanCheckSrc, Options: service.AnalyzeOptions{Mode: service.ModeInfer}},
	}
	out, meta, err := c.Batch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	wantCodes := []string{"", service.CodeBadRequest, service.CodeBadRequest, service.CodeUnsupportedVersion, ""}
	for i, want := range wantCodes {
		got := out.Results[i]
		switch {
		case want == "":
			if got.Error != nil {
				t.Errorf("entry %d: unexpected error %v", i, got.Error)
			}
			if len(got.Response) == 0 {
				t.Errorf("entry %d: healthy module got no response", i)
			}
		default:
			if got.Error == nil || got.Error.Code != want {
				t.Errorf("entry %d: error = %+v, want code %q", i, got.Error, want)
			}
			if len(got.Response) != 0 {
				t.Errorf("entry %d: rejected module carries a response", i)
			}
		}
	}
	if out.Summary.Rejected != 3 || out.Summary.CacheMisses != 2 {
		t.Errorf("summary = %+v; want rejected=3 misses=2", out.Summary)
	}
	if meta.Cache != "miss,error,error,error,miss" {
		t.Errorf("X-Lna-Cache = %q; want index-aligned dispositions", meta.Cache)
	}
}

// TestServerBackpressure: with one worker and a queue depth of one,
// a second concurrent request is refused with 429 + Retry-After
// instead of queuing unboundedly.
func TestServerBackpressure(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	service.SetTestAnalyzeHook(func(ctx context.Context, module string) {
		if module == "slow.mc" {
			entered <- struct{}{}
			<-block
		}
	})
	defer func() { service.SetTestAnalyzeHook(nil); close(block) }()

	_, c := newTestServer(t, service.ServerOptions{Workers: 1, QueueDepth: 1})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = c.Analyze(context.Background(), &service.AnalyzeRequest{
			Module: "slow.mc", Source: service.CleanCheckSrc,
			Options: service.AnalyzeOptions{Mode: service.ModeCheck}})
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never reached the analysis hook")
	}

	// The raw round trip exposes the refusal headers the retrying
	// client would otherwise consume.
	body, _ := json.Marshal(service.AnalyzeRequest{
		Module: "fast.mc", Source: service.CleanCheckSrc,
		Options: service.AnalyzeOptions{Mode: service.ModeCheck}})
	res, err := c.RoundTrip(context.Background(), "/v1/analyze", body)
	if err != nil {
		t.Fatalf("RoundTrip: %v", err)
	}
	if res.Status != http.StatusTooManyRequests {
		t.Fatalf("second request status = %d, want 429: %s", res.Status, res.Body)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Error("429 lacks a Retry-After header")
	}
	if werr := res.WireError(); werr.Code != service.CodeQueueFull {
		t.Errorf("429 code = %q, want %q", werr.Code, service.CodeQueueFull)
	}
	block <- struct{}{}
	<-done

	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected == 0 {
		t.Error("rejected counter not incremented")
	}
}

// TestServerDraining: once draining, new submissions get 503 while
// health reports the state.
func TestServerDraining(t *testing.T) {
	s, c := newTestServer(t, service.ServerOptions{})
	s.SetDraining(true)
	_, _, err := c.Analyze(context.Background(), &service.AnalyzeRequest{
		Module: "m.mc", Source: service.CleanCheckSrc,
		Options: service.AnalyzeOptions{Mode: service.ModeCheck}})
	wantAPIError(t, err, http.StatusServiceUnavailable, service.CodeDraining)
	_, _, err = c.Batch(context.Background(), corpusBatch(1))
	wantAPIError(t, err, http.StatusServiceUnavailable, service.CodeDraining)
	hs, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if hs.Status != "draining" {
		t.Errorf("health status = %q, want draining", hs.Status)
	}
}

// TestServerStatsEndpoint: the stats snapshot reflects served traffic.
func TestServerStatsEndpoint(t *testing.T) {
	_, c := newTestServer(t, service.ServerOptions{Workers: 2, CacheEntries: 8})
	req := service.AnalyzeRequest{Module: "m.mc", Source: service.CleanCheckSrc,
		Options: service.AnalyzeOptions{Mode: service.ModeCheck}}
	for i := 0; i < 2; i++ {
		if _, _, err := c.AnalyzeRaw(context.Background(), &req); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 2 || st.Requests != 2 || st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("stats = %+v; want workers=2 requests=2 cache hits=1 misses=1", st)
	}
}

// TestListenAndServeGracefulDrain: the daemon binds a free port,
// serves, and drains cleanly when its context is cancelled.
func TestListenAndServeGracefulDrain(t *testing.T) {
	s := service.NewServer(service.ServerOptions{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- s.ListenAndServe(ctx, "127.0.0.1:0", func(addr string) { addrCh <- addr })
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}
	c := client.New("http://"+addr, client.Options{Retry: client.RetryPolicy{MaxAttempts: 1}})
	resp, _, err := c.Analyze(ctx, &service.AnalyzeRequest{
		Module: "m.mc", Source: service.CleanCheckSrc,
		Options: service.AnalyzeOptions{Mode: service.ModeCheck}})
	if err != nil {
		t.Fatalf("analyze before drain: %v", err)
	}
	if !resp.OK {
		t.Fatalf("analyze before drain not OK: %+v", resp)
	}
	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("drain returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain")
	}
}

// TestServerSurvivesDeepNesting: a request nesting a million
// parentheses (about 2 MB, far under the body limit) used to overflow
// the parser's Go stack, a fatal error that took the daemon down with
// it. It must come back as a positioned parse diagnostic, and the
// daemon must go on serving.
func TestServerSurvivesDeepNesting(t *testing.T) {
	_, c := newTestServer(t, service.ServerOptions{})
	const k = 1_000_000
	deep := service.AnalyzeRequest{Module: "deep.mc",
		Source:  "fun main() { let x = " + strings.Repeat("(", k) + "1" + strings.Repeat(")", k) + "; }\n",
		Options: service.AnalyzeOptions{Mode: service.ModeQual}}
	resp, _, err := c.Analyze(context.Background(), &deep)
	if err != nil {
		t.Fatalf("deep request: %v", err)
	}
	if resp.OK || resp.Failure != nil || len(resp.Diagnostics.Diags) != 1 {
		t.Fatalf("deep request: ok=%v failure=%+v diagnostics=%+v; want one parse diagnostic",
			resp.OK, resp.Failure, resp.Diagnostics.Diags)
	}
	if d := resp.Diagnostics.Diags[0]; d.Phase != "parse" || !strings.HasPrefix(d.Pos, "deep.mc:1:") ||
		!strings.Contains(d.Message, "nesting too deep") {
		t.Errorf("deep request diagnostic = %+v", d)
	}

	next := service.AnalyzeRequest{Module: "clean.mc", Source: service.CleanCheckSrc,
		Options: service.AnalyzeOptions{Mode: service.ModeCheck}}
	if resp, _, err := c.Analyze(context.Background(), &next); err != nil || !resp.OK {
		t.Fatalf("request after the deep one: resp=%+v err=%v", resp, err)
	}
}

// TestServerMultiModuleIncrementalHeader: the daemon's X-Lna-Incremental
// header reports whole-program reuse. An identical multi_module
// resubmission is a result-cache hit, so the re-analysis is driven by a
// comment-only re-save of the request module: new bytes miss the cache,
// and every module's components replay from the memo.
func TestServerMultiModuleIncrementalHeader(t *testing.T) {
	_, c := newTestServer(t, service.ServerOptions{Workers: 1})
	mods := drivergen.XStack(2)
	leaf := mods[len(mods)-1]
	req := service.AnalyzeRequest{
		Module:  leaf.Name,
		Source:  leaf.Source,
		Options: service.AnalyzeOptions{Mode: service.ModeQual, MultiModule: true},
	}
	for _, m := range mods[:len(mods)-1] {
		req.Options.Libraries = append(req.Options.Libraries,
			service.LibrarySource{Name: m.Name, Source: m.Source})
	}

	_, first, err := c.Analyze(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cache != "miss" || first.Incremental == "" || first.Incremental == service.IncrementalFull {
		t.Fatalf("first sighting: cache=%q incremental=%q, want a miss that solved fresh", first.Cache, first.Incremental)
	}
	resaved := req
	resaved.Source = "// re-saved\n" + leaf.Source
	_, second, err := c.Analyze(context.Background(), &resaved)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cache != "miss" || second.Incremental != service.IncrementalFull {
		t.Fatalf("comment-only re-save: cache=%q incremental=%q, want miss/full", second.Cache, second.Incremental)
	}
}
