package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestParseTraceContext(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	got, ok := ParseTraceContext(sc.String())
	if !ok || got != sc {
		t.Fatalf("round trip: got %v ok=%v, want %v", got, ok, sc)
	}
	for _, bad := range []string{
		"",
		"deadbeefdeadbeef",                   // no span half
		"deadbeefdeadbeef-",                  // empty span half
		"-deadbeefdeadbeef",                  // empty trace half
		"DEADBEEFDEADBEEF-deadbeefdeadbeef",  // uppercase hex
		"deadbeefdeadbee-deadbeefdeadbeef",   // 15-char trace
		"deadbeefdeadbeef-deadbeefdeadbeefa", // 17-char span
		"xeadbeefdeadbeef-deadbeefdeadbeef",  // non-hex
	} {
		if _, ok := ParseTraceContext(bad); ok {
			t.Errorf("ParseTraceContext(%q) accepted malformed input", bad)
		}
	}
}

func TestStartSpanNesting(t *testing.T) {
	tr := NewTrace("m.mc")
	outer := tr.StartSpan("request", "request")
	tr.Add("probe", "cache", time.Now(), time.Millisecond)
	inner := tr.StartSpan("analyze", "request")
	tr.Add("parse", "phase", time.Now(), time.Millisecond)
	inner.End()
	tr.Add("relay", "request", time.Now(), time.Millisecond)
	outer.End()

	byName := map[string]Span{}
	for _, s := range tr.Spans() {
		byName[s.Name] = s
	}
	if byName["request"].Parent != "" {
		t.Errorf("root span has parent %q", byName["request"].Parent)
	}
	for name, wantParent := range map[string]string{
		"probe":   outer.ID(),
		"analyze": outer.ID(),
		"parse":   inner.ID(),
		"relay":   outer.ID(),
	} {
		if got := byName[name].Parent; got != wantParent {
			t.Errorf("span %s: parent = %q, want %q", name, got, wantParent)
		}
	}
	ids := map[string]bool{}
	for _, s := range tr.Spans() {
		if s.ID == "" || ids[s.ID] {
			t.Fatalf("span %s: missing or duplicate ID %q", s.Name, s.ID)
		}
		ids[s.ID] = true
	}
}

func TestStartChildExplicitParent(t *testing.T) {
	tr := NewTrace("m.mc")
	root := tr.StartSpan("request", "request")
	a := tr.StartChild(root.ID(), "attempt", "gateway")
	b := tr.StartChild(root.ID(), "attempt", "gateway")
	a.End("outcome", "ok")
	b.End("outcome", "canceled")
	root.End()

	n := 0
	for _, s := range tr.Spans() {
		if s.Name == "attempt" {
			n++
			if s.Parent != root.ID() {
				t.Errorf("%s parent = %q, want root %q", s.Name, s.Parent, root.ID())
			}
		}
	}
	if n != 2 {
		t.Fatalf("recorded %d child spans, want 2", n)
	}
	// StartChild must not have disturbed the default-parent stack: the
	// root span still closes as a parentless root.
	last := tr.Spans()[len(tr.Spans())-1]
	if last.Name != "request" || last.Parent != "" {
		t.Errorf("root span disturbed by StartChild: %+v", last)
	}
}

func TestNewTraceContextAdoption(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	tr := NewTraceContext("m.mc", sc)
	if tr.ID() != sc.TraceID {
		t.Fatalf("trace ID = %q, want adopted %q", tr.ID(), sc.TraceID)
	}
	root := tr.StartSpan("analyze", "request")
	root.End()
	if got := tr.Spans()[0].Parent; got != sc.SpanID {
		t.Errorf("root span parent = %q, want propagated %q", got, sc.SpanID)
	}

	// Zero context degrades to a fresh trace with a parentless root.
	fresh := NewTraceContext("m.mc", SpanContext{})
	if fresh.ID() == "" {
		t.Error("zero context produced empty trace ID")
	}
	fresh.Add("x", "phase", time.Now(), 0)
	if p := fresh.Spans()[0].Parent; p != "" {
		t.Errorf("fresh trace root parent = %q, want empty", p)
	}
}

func TestSpanCap(t *testing.T) {
	tr := NewTrace("m.mc")
	for i := 0; i < maxTraceSpans+100; i++ {
		tr.Add("s", "phase", time.Now(), 0)
	}
	if got := len(tr.Spans()); got != maxTraceSpans {
		t.Fatalf("span count = %d, want capped at %d", got, maxTraceSpans)
	}
}

func TestTraceRing(t *testing.T) {
	r := NewTraceRing(3)
	var traces []*Trace
	for i := 0; i < 4; i++ {
		tr := NewTrace("m.mc")
		traces = append(traces, tr)
		r.Put(tr)
	}
	if r.Get(traces[0].ID()) != nil {
		t.Error("oldest trace not evicted at capacity")
	}
	for _, tr := range traces[1:] {
		if r.Get(tr.ID()) != tr {
			t.Errorf("trace %s missing from ring", tr.ID())
		}
	}
	if r.Len() != 3 {
		t.Errorf("ring len = %d, want 3", r.Len())
	}
	// Nil ring and nil trace are inert.
	var nilRing *TraceRing
	nilRing.Put(traces[1])
	if nilRing.Get(traces[1].ID()) != nil || nilRing.Len() != 0 {
		t.Error("nil ring not inert")
	}
	r.Put(nil)
	if r.Len() != 3 {
		t.Error("nil trace consumed a slot")
	}
	if NewTraceRing(0) != nil || NewTraceRing(-1) != nil {
		t.Error("non-positive capacity should return the disabled ring")
	}
}

func TestWriteChromeExportsMultiProcess(t *testing.T) {
	origin := time.Unix(1700000000, 0).UTC()
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}

	gw := NewTraceContext("m.mc", SpanContext{TraceID: sc.TraceID})
	req := gw.StartSpan("gateway", "request")
	att := gw.StartChild(req.ID(), "attempt", "gateway")
	att.End("backend", "http://r1")
	req.End()

	rep := NewTraceContext("m.mc", SpanContext{TraceID: sc.TraceID, SpanID: att.ID()})
	an := rep.StartSpan("analyze", "request")
	rep.Add("parse", "phase", origin, time.Millisecond)
	an.End()

	var buf bytes.Buffer
	if err := WriteChromeExports(&buf, gw.Export("gateway"), rep.Export("replica http://r1")); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}

	pids := map[int]bool{}
	procNames := map[string]bool{}
	var analyzeParent, attemptID string
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procNames[ev.Args["name"].(string)] = true
			continue
		}
		if ev.Ph != "X" {
			continue
		}
		pids[ev.Pid] = true
		if id, _ := ev.Args["trace_id"].(string); id != sc.TraceID {
			t.Errorf("event %s: trace_id = %q, want shared %q", ev.Name, id, sc.TraceID)
		}
		switch ev.Name {
		case "attempt":
			attemptID, _ = ev.Args["span_id"].(string)
		case "analyze":
			analyzeParent, _ = ev.Args["parent_id"].(string)
		}
	}
	if len(pids) != 2 {
		t.Errorf("merged export spans %d pids, want 2", len(pids))
	}
	if !procNames["gateway"] || !procNames["replica http://r1"] {
		t.Errorf("process_name metadata missing: %v", procNames)
	}
	if analyzeParent == "" || analyzeParent != attemptID {
		t.Errorf("replica analyze parent = %q, want gateway attempt span %q", analyzeParent, attemptID)
	}
	if !strings.Contains(buf.String(), `"displayTimeUnit": "ms"`) {
		t.Error("missing displayTimeUnit")
	}
}

// TestPrometheusLabelEscaping is the regression test for the 0.0.4
// text-format escaping bug: label values containing backslashes,
// quotes, or newlines must appear escaped exactly once in the
// Prometheus exposition, and unescaped (raw) in the JSON exposition.
func TestPrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	raw := "a\\b\"c\nd"
	r.Counter("esc_total", "escaping fixture", "path", raw).Add(7)

	var prom bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{path="a\\b\"c\nd"} 7`
	if !strings.Contains(prom.String(), want) {
		t.Errorf("prometheus exposition:\n%s\nwant line %q", prom.String(), want)
	}
	if strings.Contains(prom.String(), `\\\\`) {
		t.Errorf("double-escaped backslash in exposition:\n%s", prom.String())
	}

	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []struct {
			Name   string `json:"name"`
			Series []struct {
				Labels map[string]string `json:"labels"`
			} `json:"series"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range doc.Metrics {
		if m.Name != "esc_total" {
			continue
		}
		for _, s := range m.Series {
			found = true
			if got := s.Labels["path"]; got != raw {
				t.Errorf("JSON label value = %q, want raw %q", got, raw)
			}
		}
	}
	if !found {
		t.Fatal("esc_total series missing from JSON exposition")
	}

	// Histogram series escape the same way, including the le form.
	r.Histogram("esc_seconds", "escaping fixture", nil, "path", raw).Observe(time.Millisecond)
	prom.Reset()
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), `esc_seconds_bucket{path="a\\b\"c\nd",le=`) {
		t.Errorf("histogram bucket labels not escaped once:\n%s", prom.String())
	}
}
