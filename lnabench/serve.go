package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"localalias/internal/client"
	"localalias/internal/service"
)

// serveEditsRate is serve_edits' fixed offered rate (requests/s).
const serveEditsRate = 100

// The request classes of the open-loop workloads.
const (
	classCold   = iota // first sighting of a module
	classEdit          // one-function edit: the memo partially replays
	classResave        // comment-only re-save: the memo fully replays
	classHit           // unchanged resubmit: the byte cache answers
)

var classNames = []string{"cold", "edit", "resave", "hit"}

// revision identifies one version of a module's source: edit and
// comment are revision numbers of the two edit shapes (0 = pristine).
type revision struct {
	mod, edit, comment int
}

type streamItem struct {
	class int
	rev   revision
}

// editStream is serve_edits' seeded request stream over nmods modules.
// It runs in rounds that each visit every module once, in a seeded
// order: round 0 is every module's first sighting, and each later
// group of three rounds gives every module one unchanged resubmit, one
// one-function edit and one comment-only re-save, in a seeded order per
// module. The seed thus decides the order of the traffic but not its
// make-up, so a few expensive modules weigh the same in every seed.
func editStream(seed uint64, n, nmods int) []streamItem {
	rng := rand.New(rand.NewPCG(seed, 0x5e27e))
	state := make([]revision, nmods)
	for m := range state {
		state[m].mod = m
	}
	later := []int{classHit, classEdit, classResave}
	plan := make([][]int, nmods) // per module: classes of the current group
	items := make([]streamItem, 0, n)
	next := 0
	for round := 0; len(items) < n; round++ {
		if round%3 == 1 {
			for m := range plan {
				plan[m] = append(plan[m][:0], later...)
				rng.Shuffle(len(plan[m]), func(i, j int) { plan[m][i], plan[m][j] = plan[m][j], plan[m][i] })
			}
		}
		for _, m := range rng.Perm(nmods) {
			if len(items) == n {
				break
			}
			class := classCold
			if round > 0 {
				class = plan[m][(round-1)%3]
			}
			switch class {
			case classEdit:
				next++
				state[m].edit = next
			case classResave:
				next++
				state[m].comment = next
			}
			items = append(items, streamItem{class, state[m]})
		}
	}
	return items
}

// editFunction is the n-th one-function edit: a fresh let binding at
// the top of the module's first function body. Each n yields new
// bytes and a changed constraint component for that one function.
func editFunction(src string, n int) string {
	at := strings.Index(src, "fun ")
	if at < 0 {
		return src
	}
	brace := strings.IndexByte(src[at:], '{')
	if brace < 0 {
		return src
	}
	pos := at + brace + 1
	return src[:pos] + fmt.Sprintf("\n    let __e%d = new %d;\n    *__e%d = %d;", n, n, n, n+1) + src[pos:]
}

// editComment is the n-th comment-only re-save: new bytes, every span
// shifted, the same constraint system.
func editComment(src string, n int) string {
	return fmt.Sprintf("// revision %d\n", n) + src
}

func revisionSource(src string, r revision) string {
	if r.edit > 0 {
		src = editFunction(src, r.edit)
	}
	if r.comment > 0 {
		src = editComment(src, r.comment)
	}
	return src
}

// serveStack is one in-process daemon behind loopback HTTP.
type serveStack struct {
	ts  *httptest.Server
	c   *client.Client
	tr  *http.Transport
	log *logSink
}

func startServeStack(traced bool) (*serveStack, error) {
	st := &serveStack{}
	opts := service.ServerOptions{}
	if traced {
		st.log = &logSink{}
		opts.AccessLog, opts.LogFormat = st.log, service.LogJSON
	}
	st.ts = httptest.NewServer(service.NewServer(opts).Handler())
	st.c, st.tr = newClient(st.ts.URL, runtime.NumCPU())
	if err := waitHealthy(st.c); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *serveStack) close() {
	st.tr.CloseIdleConnections()
	st.ts.Close()
}

// exchange is one answered request as the traced arm keeps it.
type exchange struct {
	req  service.AnalyzeRequest
	body []byte
	meta client.Meta
	rtUs float64 // client round trip
}

// serveRun drives the stream once against st, checking every answer.
// The traced arm also keeps every exchange for the ledger.
func serveRun(cfg config, st *serveStack, mods []corpusModule, items []streamItem, traced bool, out *outcome) (loadResult, []exchange) {
	var book digestBook
	var exs []exchange
	if traced {
		exs = make([]exchange, len(items))
	}
	ctx := context.Background()
	loop := openLoop{rate: serveEditsRate, dur: cfg.duration(), conns: runtime.NumCPU()}
	if cfg.trace {
		loop.dur /= 2
	}
	loop.send = func(i int) (time.Duration, func() bool) {
		it := items[i]
		m := mods[it.rev.mod]
		req := service.AnalyzeRequest{Module: m.name, Source: revisionSource(m.src, it.rev)}
		t0 := time.Now()
		body, meta, err := st.c.AnalyzeRaw(ctx, &req)
		rt := time.Since(t0)
		if err != nil {
			out.problem("%s (%s): %v", m.name, classNames[it.class], err)
			return rt, nil
		}
		if traced {
			exs[i] = exchange{req: req, body: body, meta: meta, rtUs: us(rt)}
		}
		return rt, func() bool {
			if err := checkAnswer(body, m.expected); err != nil {
				out.problem("%s (%s): %v", m.name, classNames[it.class], err)
				return false
			}
			if !book.check(it.rev, body) {
				out.problem("%s (%s): answer differs from the earlier answer to the same source", m.name, classNames[it.class])
				return false
			}
			return true
		}
	}
	res := loop.run()
	n := arrivals(loop.rate, loop.dur)
	out.attempted += n
	out.failed += n - res.completed()
	return res, exs
}

func runServeEdits(cfg config) (*outcome, error) {
	type setup struct {
		mods  []corpusModule
		items []streamItem
		st    *serveStack
	}
	n := arrivals(serveEditsRate, cfg.duration())
	s, setupS, err := medianSetup(func() (setup, error) {
		mods, err := loadCorpus()
		if err != nil {
			return setup{}, err
		}
		st, err := startServeStack(false)
		if err != nil {
			return setup{}, err
		}
		return setup{mods, editStream(cfg.seed, n, len(mods)), st}, nil
	}, func(s setup) { s.st.close() })
	if err != nil {
		return nil, err
	}
	classes := make([]int, len(s.items))
	for i, it := range s.items {
		classes[i] = it.class
	}
	out := newOutcome()
	plain, _ := serveRun(cfg, s.st, s.mods, s.items, false, out)
	s.st.close()
	if !cfg.trace {
		out.metrics["setup_s"] = setupS
		openLoopMetrics(out, plain, classes)
		return out, nil
	}
	loadgenMetrics(out, plain, classes)

	// The traced arm replays the same stream against a fresh daemon
	// that writes its JSON access log to memory.
	st, err := startServeStack(true)
	if err != nil {
		return nil, err
	}
	before, err := counters(st.c)
	if err != nil {
		st.close()
		return nil, err
	}
	traced, exs := serveRun(cfg, st, s.mods, s.items, true, out)
	after, err := counters(st.c)
	st.close()
	if err != nil {
		return nil, err
	}
	out.metrics["ledger.trace_overhead_share"] = median(traced.lat)/median(plain.lat) - 1
	tierMetrics(out, before, after)
	if err := serveLedger(out, s.mods, s.items, exs, st.log); err != nil {
		return nil, err
	}
	bypassed(out, "gateway", "modgraph")
	return out, nil
}

// serveLedger attributes serve_edits' traced arm: the daemon's
// access-log duration, the request-path steps re-run on the recorded
// requests, the engine phases the daemon reported, and a layer-by-layer
// replay of a sample of the misses.
func serveLedger(out *outcome, mods []corpusModule, items []streamItem, exs []exchange, log *logSink) error {
	server, err := log.durByTrace()
	if err != nil {
		return err
	}
	var (
		path                                    requestPath
		serverUs, transportUs, engineUs, shares []float64
		misses                                  []int
	)
	for i := range exs {
		ex := &exs[i]
		if ex.body == nil {
			continue
		}
		srv, ok := server[ex.meta.TraceID]
		if !ok {
			out.problem("trace %s missing from the access log", ex.meta.TraceID)
			continue
		}
		serverUs = append(serverUs, srv)
		transportUs = append(transportUs, ex.rtUs-srv)
		attributed, err := path.add(ex)
		if err != nil {
			out.problem("%s: %v", ex.req.Module, err)
			continue
		}
		if ex.meta.Cache != "miss" {
			continue
		}
		misses = append(misses, i)
		eng, err := phasesUs(ex.meta.Phases)
		if err != nil {
			return err
		}
		engineUs = append(engineUs, eng)
		shares = append(shares, (srv-attributed-eng)/srv)
	}
	path.metrics(out)
	out.metrics["service.server_us"] = median(serverUs)
	out.metrics["client.transport_us"] = median(transportUs)
	out.metrics["service.engine_us"] = median(engineUs)
	out.metrics["ledger.unattributed_share"] = median(shares)
	out.info["requests_ledgered"] = len(serverUs)
	out.info["misses_ledgered"] = len(shares)

	var samples []layerSample
	for _, i := range spread(misses, maxReplays) {
		m := mods[items[i].rev.mod]
		s, err := replay(m.name, exs[i].req.Source, nil)
		if err != nil {
			out.problem("replay %v", err)
			continue
		}
		if s.triple != m.expected {
			out.problem("replay %s: triple %v, want %v", m.name, s.triple, m.expected)
		}
		samples = append(samples, s)
	}
	layerMetrics(out, samples)
	return nil
}
