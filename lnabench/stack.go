package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"localalias/internal/client"
	"localalias/internal/drivergen"
	"localalias/internal/service"
)

// newClient returns a v1 client that uses at most conns connections
// and never retries: a refused request is counted, not hidden.
func newClient(url string, conns int) (*client.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return client.New(url, client.Options{
		HTTPClient: &http.Client{Transport: tr},
		Retry:      client.RetryPolicy{MaxAttempts: 1},
	}), tr
}

// waitHealthy polls /v1/health until the tier answers "ok".
func waitHealthy(c *client.Client) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		h, err := c.Health(ctx)
		if err == nil && h.Status == "ok" {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s never became healthy: %v", c.BaseURL(), err)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// counters reads the process's /v1/metrics counters and gauges,
// summed over their label sets.
func counters(c *client.Client) (map[string]float64, error) {
	res, err := c.GetRaw(context.Background(), "/v1/metrics")
	if err != nil {
		return nil, err
	}
	var doc struct {
		Metrics []struct {
			Name   string `json:"name"`
			Series []struct {
				Value *int64 `json:"value"`
			} `json:"series"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(res.Body, &doc); err != nil {
		return nil, fmt.Errorf("decoding /v1/metrics: %w", err)
	}
	out := map[string]float64{}
	for _, m := range doc.Metrics {
		for _, s := range m.Series {
			if s.Value != nil {
				out[m.Name] += float64(*s.Value)
			}
		}
	}
	return out, nil
}

// ratio is a/(a+b), 0 when both are 0.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// logSink collects a tier's JSON access log in memory.
type logSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logSink) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

// durByTrace returns each logged /v1/analyze request's server-side
// duration (µs), keyed by trace ID.
func (l *logSink) durByTrace() (map[string]float64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(l.buf.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var e service.AccessEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("access log: %w", err)
		}
		if e.Path == "/v1/analyze" && e.Trace != "" {
			out[e.Trace] = e.DurMs * 1000
		}
	}
	return out, sc.Err()
}

// phasesUs sums an X-Lna-Phases header ("parse:73µs,typecheck:137µs,...")
// in µs.
func phasesUs(h string) (float64, error) {
	var total time.Duration
	for _, part := range strings.Split(h, ",") {
		if part == "" {
			continue
		}
		_, v, ok := strings.Cut(part, ":")
		if !ok {
			return 0, fmt.Errorf("bad phase %q", part)
		}
		d, err := time.ParseDuration(v)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return us(total), nil
}

// checkAnswer holds one canonical qual response to its known triple.
// It decodes only the fields it checks, so the verifier adds little
// garbage to the heap under measurement.
func checkAnswer(body []byte, want drivergen.Triple) error {
	type count struct {
		NumErrors int `json:"num_errors"`
	}
	var a struct {
		Failure *struct {
			Message string `json:"message"`
		} `json:"failure"`
		Locking *struct {
			NoConfine   count `json:"no_confine"`
			WithConfine count `json:"confine_inference"`
			AllStrong   count `json:"all_strong"`
		} `json:"locking"`
	}
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("undecodable answer: %w", err)
	}
	if a.Failure != nil {
		return errors.New(a.Failure.Message)
	}
	if a.Locking == nil {
		return errors.New("no locking report")
	}
	got := drivergen.Triple{
		NoConfine: a.Locking.NoConfine.NumErrors,
		Confine:   a.Locking.WithConfine.NumErrors,
		AllStrong: a.Locking.AllStrong.NumErrors,
	}
	if got != want {
		return fmt.Errorf("triple %v, want %v", got, want)
	}
	return nil
}

// digestBook holds every answer for one input to the bytes of the
// first answer seen for it: a cache hit must replay the miss that
// filled it byte for byte.
type digestBook struct {
	mu sync.Mutex
	m  map[any][32]byte
}

func (d *digestBook) check(key any, body []byte) bool {
	sum := sha256.Sum256(body)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.m == nil {
		d.m = map[any][32]byte{}
	}
	prev, ok := d.m[key]
	if !ok {
		d.m[key] = sum
		return true
	}
	return prev == sum
}
