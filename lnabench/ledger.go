package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"localalias/internal/funcidx"
	"localalias/internal/service"
)

// tierMetrics fills the daemon counters read from /v1/metrics around
// a traced arm.
func tierMetrics(out *outcome, before, after map[string]float64) {
	d := func(name string) float64 { return after[name] - before[name] }
	out.metrics["solve.memo_replay_ratio"] = ratio(d("lna_solve_memo_hits_total"), d("lna_solve_memo_misses_total"))
	out.metrics["service.cache_hit_ratio"] = ratio(d("lna_cache_hits_total"), d("lna_cache_misses_total"))
	out.metrics["service.refused"] = d("lna_http_rejected_total") + d("lna_gateway_rejected_total")
}

// maxReplays bounds how many cache misses a traced arm replays layer
// by layer (evenly spread over the arm).
const maxReplays = 300

// spread picks at most k of xs, evenly spaced.
func spread(xs []int, k int) []int {
	if len(xs) <= k {
		return xs
	}
	out := make([]int, 0, k)
	for j := 0; j < k; j++ {
		out = append(out, xs[j*len(xs)/k])
	}
	return out
}

// requestPath re-runs, on each recorded exchange of a traced arm, the
// steps the daemon performs around its engine: the request decode and
// cache-key hash of every request, and for a miss the incremental
// engine's funcidx bookkeeping and the canonical marshal.
type requestPath struct {
	fx                                               funcidxTracker
	decodeUs, keyUs, funcidxUs, funcidxKB, marshalUs []float64
}

// add re-runs the steps for ex and returns the µs they took.
func (p *requestPath) add(ex *exchange) (float64, error) {
	dec, key, err := requestSteps(&ex.req)
	if err != nil {
		return 0, err
	}
	p.decodeUs = append(p.decodeUs, dec)
	p.keyUs = append(p.keyUs, key)
	if ex.meta.Cache != "miss" {
		return dec + key, nil
	}
	fxUs, fxKB := p.fx.miss(ex.req.Module, ex.req.Source)
	p.funcidxUs = append(p.funcidxUs, fxUs)
	p.funcidxKB = append(p.funcidxKB, fxKB)
	mar, err := marshalStep(ex.body)
	if err != nil {
		return 0, err
	}
	p.marshalUs = append(p.marshalUs, mar)
	return dec + key + fxUs + mar, nil
}

func (p *requestPath) metrics(out *outcome) {
	out.metrics["service.decode_us"] = median(p.decodeUs)
	out.metrics["service.cachekey_us"] = median(p.keyUs)
	out.metrics["service.marshal_us"] = median(p.marshalUs)
	out.metrics["funcidx.busy_us"] = median(p.funcidxUs)
	out.metrics["funcidx.alloc_kb"] = median(p.funcidxKB)
}

// requestSteps re-runs the daemon's request decode and cache-key hash
// on the request the client sent.
func requestSteps(req *service.AnalyzeRequest) (decodeUs, keyUs float64, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, 0, err
	}
	var got service.AnalyzeRequest
	t0 := time.Now()
	err = json.NewDecoder(bytes.NewReader(body)).Decode(&got)
	decodeUs = us(time.Since(t0))
	if err != nil {
		return 0, 0, err
	}
	t0 = time.Now()
	service.CacheKey(&got)
	return decodeUs, us(time.Since(t0)), nil
}

// marshalStep re-renders a served answer with the canonical marshaller
// and checks it reproduces the served bytes.
func marshalStep(body []byte) (float64, error) {
	var resp service.AnalyzeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, err
	}
	t0 := time.Now()
	again, err := resp.MarshalCanonical()
	d := us(time.Since(t0))
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(again, body) {
		return 0, fmt.Errorf("canonical marshal does not reproduce the served bytes")
	}
	return d, nil
}

// funcidxTracker re-runs the incremental engine's per-miss declaration
// bookkeeping (Build, then Diff and Invalidated against the module's
// previous revision) in arrival order.
type funcidxTracker struct {
	prior map[string]*funcidx.Index
}

func (f *funcidxTracker) miss(module, src string) (busyUs, allocKB float64) {
	if f.prior == nil {
		f.prior = map[string]*funcidx.Index{}
	}
	d, n := measure(func() {
		idx := funcidx.Build(module, src)
		if prior := f.prior[module]; prior != nil {
			funcidx.Invalidated(prior, idx, funcidx.Diff(prior, idx))
		}
		f.prior[module] = idx
	})
	return us(d), float64(n) / 1024
}
