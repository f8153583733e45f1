package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"localalias/internal/client"
	"localalias/internal/core"
	"localalias/internal/drivergen"
	"localalias/internal/effects"
	"localalias/internal/gateway"
	"localalias/internal/modgraph"
	"localalias/internal/qual"
	"localalias/internal/service"
	"localalias/internal/solve"
	"localalias/internal/types"
)

// fleetRate is fleet_xmodule's fixed offered rate (requests/s).
const fleetRate = 150

// fleetLeaves is the XStack's leaf count: each request analyzes the
// three libraries plus one leaf.
const fleetLeaves = 32

// fleetPlan is the make-up of every group of ten rounds after a
// leaf's first request: three new revisions and seven resubmits of
// earlier ones.
var fleetPlan = []int{classEdit, classEdit, classEdit,
	classHit, classHit, classHit, classHit, classHit, classHit, classHit}

// fleetReplicas is the number of daemons behind the gateway; each gets
// one analysis worker, so the fleet has as many workers as a 2-thread
// host has hardware threads.
const fleetReplicas = 2

// fleetProgram is the XStack as requests see it.
type fleetProgram struct {
	libs   []drivergen.XModule // xhdr, xio, xqueue in dependency order
	leaves []drivergen.XModule
	wire   []service.LibrarySource
}

func loadFleetProgram() (*fleetProgram, error) {
	mods := drivergen.XStack(fleetLeaves)
	p := &fleetProgram{}
	for _, m := range mods {
		if len(m.Name) >= 4 && m.Name[:4] == "xdrv" {
			p.leaves = append(p.leaves, m)
			continue
		}
		p.libs = append(p.libs, m)
		p.wire = append(p.wire, service.LibrarySource{Name: m.Name, Source: m.Source})
	}
	if len(p.libs) != 3 || len(p.leaves) != fleetLeaves {
		return nil, fmt.Errorf("XStack has %d libraries and %d leaves, want 3 and %d", len(p.libs), len(p.leaves), fleetLeaves)
	}
	return p, nil
}

// request is leaf l's revision rev (0 = pristine; n = the n-th
// one-function edit).
func (p *fleetProgram) request(l, rev int) service.AnalyzeRequest {
	src := p.leaves[l].Source
	if rev > 0 {
		src = editFunction(src, rev)
	}
	return service.AnalyzeRequest{
		Module: p.leaves[l].Name,
		Source: src,
		Options: service.AnalyzeOptions{
			Mode:        service.ModeQual,
			MultiModule: true,
			Libraries:   p.wire,
		},
	}
}

// fleetItem is one arrival: a leaf at a revision.
type fleetItem struct {
	class int
	leaf  int
	rev   int
}

// fleetStream is fleet_xmodule's seeded request stream. Like
// serve_edits' it runs in rounds that visit every leaf once in a seeded
// order: round 0 is each leaf's first request, and every later group
// of rounds follows fleetPlan per leaf in a seeded order. A resubmit
// picks one of the leaf's earlier revisions at random.
func fleetStream(seed uint64, n int) []fleetItem {
	rng := rand.New(rand.NewPCG(seed, 0xf1ee7))
	revs := make([][]int, fleetLeaves) // revisions issued per leaf
	plan := make([][]int, fleetLeaves)
	items := make([]fleetItem, 0, n)
	next := 0
	for round := 0; len(items) < n; round++ {
		if (round-1)%len(fleetPlan) == 0 {
			for l := range plan {
				plan[l] = append(plan[l][:0], fleetPlan...)
				rng.Shuffle(len(plan[l]), func(i, j int) { plan[l][i], plan[l][j] = plan[l][j], plan[l][i] })
			}
		}
		for _, l := range rng.Perm(fleetLeaves) {
			if len(items) == n {
				break
			}
			switch {
			case round == 0:
				revs[l] = append(revs[l], 0)
				items = append(items, fleetItem{classCold, l, 0})
			case plan[l][(round-1)%len(fleetPlan)] == classHit:
				items = append(items, fleetItem{classHit, l, revs[l][rng.IntN(len(revs[l]))]})
			default:
				next++
				revs[l] = append(revs[l], next)
				items = append(items, fleetItem{classEdit, l, next})
			}
		}
	}
	return items
}

// fleetStack is a gateway over in-process replicas, all on loopback.
type fleetStack struct {
	replicas []*httptest.Server
	gw       *gateway.Gateway
	gts      *httptest.Server
	c        *client.Client
	trs      []*http.Transport
	direct   map[string]*client.Client // replica URL → client
	gwLog    *logSink
	repLog   *logSink
}

func startFleetStack(traced bool) (*fleetStack, error) {
	st := &fleetStack{direct: map[string]*client.Client{}}
	ropts := service.ServerOptions{Workers: 1}
	gopts := gateway.Options{}
	if traced {
		st.gwLog, st.repLog = &logSink{}, &logSink{}
		ropts.AccessLog, ropts.LogFormat = st.repLog, service.LogJSON
		gopts.AccessLog, gopts.LogFormat = st.gwLog, service.LogJSON
	}
	for i := 0; i < fleetReplicas; i++ {
		ts := httptest.NewServer(service.NewServer(ropts).Handler())
		st.replicas = append(st.replicas, ts)
		gopts.Backends = append(gopts.Backends, ts.URL)
		c, tr := newClient(ts.URL, runtime.NumCPU())
		st.direct[ts.URL] = c
		st.trs = append(st.trs, tr)
	}
	gw, err := gateway.New(gopts)
	if err != nil {
		st.close()
		return nil, err
	}
	st.gw = gw.Start()
	st.gts = httptest.NewServer(st.gw.Handler())
	c, tr := newClient(st.gts.URL, runtime.NumCPU())
	st.c = c
	st.trs = append(st.trs, tr)
	if err := waitHealthy(st.c); err != nil {
		st.close()
		return nil, err
	}
	// Health-up means every replica is in the ring, not just one.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		healthy := 0
		for _, b := range st.gw.BackendStates() {
			if b.Healthy {
				healthy++
			}
		}
		if healthy == fleetReplicas {
			return st, nil
		}
		if ctx.Err() != nil {
			st.close()
			return nil, fmt.Errorf("only %d of %d replicas joined the ring", healthy, fleetReplicas)
		}
		st.gw.CheckNow(ctx)
	}
}

func (st *fleetStack) close() {
	for _, tr := range st.trs {
		tr.CloseIdleConnections()
	}
	if st.gts != nil {
		st.gts.Close()
	}
	if st.gw != nil {
		st.gw.Shutdown()
	}
	for _, ts := range st.replicas {
		ts.Close()
	}
}

// fleetExchange is one answered arrival as the traced arm keeps it.
type fleetExchange struct {
	exchange
	directUs float64 // hit resent straight to its replica after the arm: round trip
	affine   bool    // a hit answered from the cache of the replica that filled it
}

// fleetRun drives the stream once through the gateway; the traced arm
// keeps every answered exchange.
func fleetRun(cfg config, st *fleetStack, p *fleetProgram, items []fleetItem, traced bool, out *outcome) (loadResult, []fleetExchange) {
	var book digestBook
	var owners sync.Map // revision key → backend that served its first answer
	var exs []fleetExchange
	if traced {
		exs = make([]fleetExchange, len(items))
	}
	ctx := context.Background()
	loop := openLoop{rate: fleetRate, dur: cfg.duration(), conns: runtime.NumCPU()}
	if cfg.trace {
		loop.dur /= 2
	}
	loop.send = func(i int) (time.Duration, func() bool) {
		it := items[i]
		leaf := p.leaves[it.leaf]
		req := p.request(it.leaf, it.rev)
		key := [2]int{it.leaf, it.rev}
		t0 := time.Now()
		body, meta, err := st.c.AnalyzeRaw(ctx, &req)
		rt := time.Since(t0)
		if err != nil {
			out.problem("%s rev %d (%s): %v", leaf.Name, it.rev, classNames[it.class], err)
			return rt, nil
		}
		owner, _ := owners.LoadOrStore(key, meta.Backend)
		check := func() bool {
			if err := checkAnswer(body, leaf.ExpSummary); err != nil {
				out.problem("%s rev %d (%s): %v", leaf.Name, it.rev, classNames[it.class], err)
				return false
			}
			if !book.check(key, body) {
				out.problem("%s rev %d (%s): answer differs from the earlier answer to the same source", leaf.Name, it.rev, classNames[it.class])
				return false
			}
			return true
		}
		if !traced {
			return rt, check
		}
		ex := fleetExchange{exchange: exchange{req: req, body: body, meta: meta, rtUs: us(rt)}}
		if it.class == classHit {
			ex.affine = meta.Cache == "hit" && owner == meta.Backend
		}
		exs[i] = ex
		return rt, check
	}
	res := loop.run()
	n := arrivals(loop.rate, loop.dur)
	out.attempted += n
	out.failed += n - res.completed()
	return res, exs
}

func runFleetXmodule(cfg config) (*outcome, error) {
	type setup struct {
		p     *fleetProgram
		items []fleetItem
		st    *fleetStack
	}
	n := arrivals(fleetRate, cfg.duration())
	s, setupS, err := medianSetup(func() (setup, error) {
		p, err := loadFleetProgram()
		if err != nil {
			return setup{}, err
		}
		st, err := startFleetStack(false)
		if err != nil {
			return setup{}, err
		}
		return setup{p, fleetStream(cfg.seed, n), st}, nil
	}, func(s setup) { s.st.close() })
	if err != nil {
		return nil, err
	}
	classes := make([]int, len(s.items))
	for i, it := range s.items {
		classes[i] = it.class
	}
	out := newOutcome()
	plain, _ := fleetRun(cfg, s.st, s.p, s.items, false, out)
	s.st.close()
	if !cfg.trace {
		out.metrics["setup_s"] = setupS
		openLoopMetrics(out, plain, classes)
		return out, nil
	}
	loadgenMetrics(out, plain, classes)

	st, err := startFleetStack(true)
	if err != nil {
		return nil, err
	}
	before, err := counters(st.c)
	if err != nil {
		st.close()
		return nil, err
	}
	traced, exs := fleetRun(cfg, st, s.p, s.items, true, out)
	after, err := counters(st.c)
	if err == nil {
		resendHits(st, s.items, exs, out)
	}
	st.close()
	if err != nil {
		return nil, err
	}
	out.metrics["ledger.trace_overhead_share"] = median(traced.lat)/median(plain.lat) - 1
	tierMetrics(out, before, after)
	if err := fleetLedger(out, s.p, s.items, exs, st); err != nil {
		return nil, err
	}
	return out, nil
}

// resendHits sends every answered hit of the traced arm once more,
// straight to the replica that served it, to split the gateway's relay
// cost out of the round trip. It runs after the arm and after its
// counters are read, so the re-sends neither count among the fleet's
// cache hits nor occupy the arm's senders.
func resendHits(st *fleetStack, items []fleetItem, exs []fleetExchange, out *outcome) {
	ctx := context.Background()
	for i := range exs {
		ex := &exs[i]
		if ex.body == nil || items[i].class != classHit {
			continue
		}
		dc := st.direct[ex.meta.Backend]
		if dc == nil {
			out.problem("%s: unknown backend %q", ex.req.Module, ex.meta.Backend)
			continue
		}
		t0 := time.Now()
		dbody, _, err := dc.AnalyzeRaw(ctx, &ex.req)
		ex.directUs = us(time.Since(t0))
		if err != nil || !bytes.Equal(dbody, ex.body) {
			out.problem("%s: direct replica answer differs from the relayed one (%v)", ex.req.Module, err)
		}
	}
}

// fleetLedger attributes fleet_xmodule's traced arm: the gateway's and
// the replicas' access-log durations, the relay cost against a direct
// replica round trip, the request-path steps re-run on the recorded
// requests, the whole-program pass re-run through modgraph.Analyze, and
// a layer-by-layer replay of every module of a sample of the misses.
func fleetLedger(out *outcome, p *fleetProgram, items []fleetItem, exs []fleetExchange, st *fleetStack) error {
	gwDur, err := st.gwLog.durByTrace()
	if err != nil {
		return err
	}
	repDur, err := st.repLog.durByTrace()
	if err != nil {
		return err
	}
	var (
		path                                                    requestPath
		serverUs, transportUs, relayUs, attempts, graphUs, mods []float64
		shares                                                  []float64
		misses                                                  []int
		hits, affine                                            int
	)
	memo := solve.NewMemo(service.DefaultMemoEntries())
	for i := range exs {
		ex := &exs[i]
		if ex.body == nil {
			continue
		}
		gw, ok1 := gwDur[ex.meta.TraceID]
		srv, ok2 := repDur[ex.meta.TraceID]
		if !ok1 || !ok2 {
			out.problem("trace %s missing from the access logs", ex.meta.TraceID)
			continue
		}
		serverUs = append(serverUs, srv)
		transportUs = append(transportUs, ex.rtUs-gw)
		attempts = append(attempts, float64(ex.meta.Attempts))
		if items[i].class == classHit {
			hits++
			if ex.affine {
				affine++
			}
			relayUs = append(relayUs, ex.rtUs-ex.directUs)
		}
		attributed, err := path.add(&ex.exchange)
		if err != nil {
			out.problem("%s: %v", ex.req.Module, err)
			continue
		}
		if ex.meta.Cache != "miss" {
			continue
		}
		misses = append(misses, i)
		g, n, err := graphStep(p, ex.req, p.leaves[items[i].leaf].ExpSummary, memo)
		if err != nil {
			out.problem("%v", err)
			continue
		}
		graphUs = append(graphUs, g)
		mods = append(mods, float64(n))
		shares = append(shares, (srv-attributed-g)/srv)
	}
	path.metrics(out)
	out.metrics["service.server_us"] = median(serverUs)
	out.metrics["client.transport_us"] = median(transportUs)
	// The whole-program pass is the engine of a multi_module miss.
	out.metrics["service.engine_us"] = median(graphUs)
	out.metrics["modgraph.busy_us"] = median(graphUs)
	out.metrics["modgraph.modules"] = median(mods)
	out.metrics["gateway.relay_us"] = median(relayUs)
	out.metrics["gateway.attempts_per_req"] = mean(attempts)
	out.metrics["gateway.affinity_hit_ratio"] = 0
	if hits > 0 {
		out.metrics["gateway.affinity_hit_ratio"] = float64(affine) / float64(hits)
	}
	out.metrics["ledger.unattributed_share"] = median(shares)
	out.info["requests_ledgered"] = len(serverUs)
	out.info["misses_ledgered"] = len(shares)
	out.info["hits_ledgered"] = hits

	envs, err := libraryEnvs(p)
	if err != nil {
		return err
	}
	var samples []layerSample
	for _, i := range spread(misses, maxReplays/4) {
		var total layerSample
		ok := true
		for j, lib := range p.libs {
			s, err := replay(lib.Name, lib.Source, envs[j])
			if err != nil {
				out.problem("replay %v", err)
				ok = false
				break
			}
			total.add(s)
		}
		leaf := p.leaves[items[i].leaf]
		s, err := replay(leaf.Name, exs[i].req.Source, envs[len(p.libs)])
		if err != nil {
			out.problem("replay %v", err)
			ok = false
		} else if s.triple != leaf.ExpSummary {
			out.problem("replay %s: triple %v, want %v", leaf.Name, s.triple, leaf.ExpSummary)
		}
		if ok {
			total.add(s)
			samples = append(samples, total)
		}
	}
	layerMetrics(out, samples)
	return nil
}

// graphStep re-runs a miss's whole-program pass as the replica does
// (modgraph.Analyze with a resident memo) and checks the request
// module's answer.
func graphStep(p *fleetProgram, req service.AnalyzeRequest, want drivergen.Triple, memo *solve.Memo) (float64, int, error) {
	sources := make([]modgraph.Source, 0, len(p.libs)+1)
	for _, lib := range p.libs {
		sources = append(sources, modgraph.Source{Name: lib.Name, Text: lib.Source})
	}
	sources = append(sources, modgraph.Source{Name: req.Module, Text: req.Source})
	t0 := time.Now()
	res := modgraph.Analyze(sources, modgraph.Options{Memo: memo})
	d := us(time.Since(t0))
	mr := res.Modules[req.Module]
	if mr == nil || mr.Failed() || mr.Locking == nil {
		return 0, 0, fmt.Errorf("modgraph: %s did not analyze", req.Module)
	}
	got := drivergen.Triple{
		NoConfine: mr.Locking.NoConfine.NumErrors(),
		Confine:   mr.Locking.WithConfine.NumErrors(),
		AllStrong: mr.Locking.AllStrong.NumErrors(),
	}
	if got != want {
		return 0, 0, fmt.Errorf("modgraph: %s triple %v, want %v", req.Module, got, want)
	}
	return d, len(res.Modules), nil
}

// libraryEnvs builds the import environment each module of the stack
// is analyzed under — the libraries in order, then any leaf — from one
// whole-program pass over the libraries, the way modgraph composes
// dependency summaries.
func libraryEnvs(p *fleetProgram) ([]*importEnv, error) {
	sources := make([]modgraph.Source, 0, len(p.libs))
	for _, lib := range p.libs {
		sources = append(sources, modgraph.Source{Name: lib.Name, Text: lib.Source})
	}
	res := modgraph.Analyze(sources, modgraph.Options{})
	envFor := func(deps []string) (*importEnv, error) {
		env := &importEnv{sigs: types.ImportSigs{}, effects: map[string][]effects.Mask{}, export: true}
		for _, d := range deps {
			mr := res.Modules[d]
			if mr == nil || mr.Failed() || mr.API == nil {
				return nil, fmt.Errorf("library %s did not analyze", d)
			}
			env.sigs[d] = mr.Module.TInfo.Exports(d)
			for fn, masks := range mr.API.Effects {
				env.effects[d+"."+fn] = masks
			}
			for v := 0; v < core.NumVariants; v++ {
				for fn, pts := range mr.API.Transfers[v] {
					if env.transfers[v] == nil {
						env.transfers[v] = qual.Transfers{}
					}
					env.transfers[v][d+"."+fn] = pts
				}
			}
		}
		return env, nil
	}
	var envs []*importEnv
	for _, lib := range p.libs {
		env, err := envFor(lib.Deps)
		if err != nil {
			return nil, err
		}
		envs = append(envs, env)
	}
	env, err := envFor(p.leaves[0].Deps)
	if err != nil {
		return nil, err
	}
	return append(envs, env), nil
}
