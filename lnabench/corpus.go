package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"localalias/internal/drivergen"
	"localalias/internal/service"
)

// The paper's Section 7 totals every full corpus pass must reproduce.
const (
	paperPotential  = 3277
	paperEliminated = 3116
)

// corpusModule is one drivergen module with its known answer.
type corpusModule struct {
	name     string
	src      string
	expected drivergen.Triple
}

// loadCorpus generates the 589-module corpus.
func loadCorpus() ([]corpusModule, error) {
	specs := drivergen.Corpus()
	if len(specs) != drivergen.NumModules {
		return nil, fmt.Errorf("corpus has %d modules, want %d", len(specs), drivergen.NumModules)
	}
	mods := make([]corpusModule, len(specs))
	for i, s := range specs {
		mods[i] = corpusModule{name: s.Name + ".mc", src: s.Source(), expected: s.Expected}
	}
	return mods, nil
}

// permutation is the seed's module order for one pass.
func permutation(seed uint64, pass, n int) []int {
	return rand.New(rand.NewPCG(seed, uint64(pass)+1)).Perm(n)
}

// lockingTriple reads the three-mode error counts of a response.
func lockingTriple(l *service.LockingReport) drivergen.Triple {
	return drivergen.Triple{
		NoConfine: l.NoConfine.NumErrors,
		Confine:   l.WithConfine.NumErrors,
		AllStrong: l.AllStrong.NumErrors,
	}
}

// corpusArm is one measured stretch of whole corpus passes.
type corpusArm struct {
	lat      []float64 // per module, ms, around AnalyzeBounded
	passes   int
	perPass  []passStats
	usage    usage
	peakMB   float64
	heapMB   float64
	samples  []layerSample // traced arm only
	engineUs []float64     // traced arm only, same order as samples
}

// passStats is one corpus pass's own figures.
type passStats struct {
	modulesPerS float64
	p50, p90    float64 // ms per module
	cpuMs       float64 // per module
	allocKB     float64 // per module
}

// corpusPasses runs whole passes over the corpus in the seed's module
// orders, on `workers` closed-loop workers, until dur has elapsed (the
// pass under way is finished). Every answer is checked against its
// module's expected triple and every pass against the paper's totals.
// When traced, each module is also replayed layer by layer right
// after its real analysis.
func corpusPasses(cfg config, mods []corpusModule, workers int, dur time.Duration, traced bool, out *outcome) corpusArm {
	var arm corpusArm
	type result struct {
		lat        time.Duration
		ok         bool
		potential  int
		eliminated int
		sample     layerSample
	}
	ctx := context.Background()
	results := make([]result, len(mods))
	analyze := func(m corpusModule) result {
		var r result
		req := service.AnalyzeRequest{Module: m.name, Source: m.src}
		t0 := time.Now()
		resp := service.AnalyzeBounded(ctx, &req, service.DefaultRequestTimeout)
		r.lat = time.Since(t0)
		switch {
		case resp.Failure != nil:
			out.problem("%s: %s", m.name, resp.Failure.Message)
		case resp.Locking == nil:
			out.problem("%s: no locking report", m.name)
		case lockingTriple(resp.Locking) != m.expected:
			out.problem("%s: triple %v, want %v", m.name, lockingTriple(resp.Locking), m.expected)
		default:
			r.ok = true
			r.potential = resp.Locking.Potential
			r.eliminated = resp.Locking.Eliminated
		}
		if traced {
			s, err := replay(m.name, m.src, nil)
			if err != nil {
				out.problem("replay %v", err)
				r.ok = false
				return r
			}
			if s.triple != m.expected {
				out.problem("replay %s: triple %v, want %v", m.name, s.triple, m.expected)
				r.ok = false
				return r
			}
			r.sample = s
		}
		return r
	}

	runtime.GC()
	heap := startHeapSampler()
	snap := snapshot()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < dur; pass++ {
		perm := permutation(cfg.seed, pass, len(mods))
		passSnap := snapshot()
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(perm) {
						return
					}
					results[i] = analyze(mods[perm[i]])
				}
			}()
		}
		wg.Wait()
		u := since(passSnap)
		var lat []float64
		analyzed, potential, eliminated := 0, 0, 0
		for i := range results {
			r := &results[i]
			out.attempted++
			if !r.ok {
				out.failed++
				continue
			}
			analyzed++
			potential += r.potential
			eliminated += r.eliminated
			lat = append(lat, ms(r.lat))
			if traced {
				arm.samples = append(arm.samples, r.sample)
				arm.engineUs = append(arm.engineUs, us(r.lat))
			}
		}
		if analyzed != drivergen.NumModules || potential != paperPotential || eliminated != paperEliminated {
			out.problem("pass %d: %d modules, %d/%d eliminated, want %d modules, %d/%d",
				pass, analyzed, eliminated, potential, drivergen.NumModules, paperEliminated, paperPotential)
		}
		arm.lat = append(arm.lat, lat...)
		arm.perPass = append(arm.perPass, passStats{
			modulesPerS: float64(len(lat)) / u.wall.Seconds(),
			p50:         quantile(lat, 0.5),
			p90:         quantile(lat, 0.9),
			cpuMs:       ms(u.cpu) / float64(max(len(lat), 1)),
			allocKB:     float64(u.alloc) / 1024 / float64(max(len(lat), 1)),
		})
		arm.passes++
	}
	arm.usage = since(snap)
	arm.peakMB, arm.heapMB = heap.finish()
	return arm
}

func runCorpusBatch(cfg config) (*outcome, error) {
	mods, setupS, err := medianSetup(loadCorpus, func([]corpusModule) {})
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	if !cfg.trace {
		// Each figure is the median over the run's passes of that
		// pass's own figure, so a host stall during one pass does not
		// move the result; peak heap is the whole run's.
		arm := corpusPasses(cfg, mods, runtime.NumCPU(), cfg.duration(), false, out)
		col := func(f func(p passStats) float64) float64 {
			xs := make([]float64, len(arm.perPass))
			for i, p := range arm.perPass {
				xs[i] = f(p)
			}
			return median(xs)
		}
		out.metrics["setup_s"] = setupS
		out.metrics["latency_p50_ms"] = col(func(p passStats) float64 { return p.p50 })
		out.metrics["cpu_ms_per_req"] = col(func(p passStats) float64 { return p.cpuMs })
		out.metrics["alloc_kb_per_req"] = col(func(p passStats) float64 { return p.allocKB })
		out.metrics["peak_heap_mb"] = arm.peakMB
		out.info["modules_per_s"] = col(func(p passStats) float64 { return p.modulesPerS })
		out.info["workers"] = runtime.NumCPU()
		out.info["passes"] = arm.passes
		out.info["pass_samples"] = drivergen.NumModules
		out.info["whole_run_p50_ms"] = quantile(arm.lat, 0.5)
		out.info["whole_run_p90_ms"] = quantile(arm.lat, 0.9)
		out.info["whole_run_samples"] = len(arm.lat)
		out.info["latency_p90_ms"] = col(func(p passStats) float64 { return p.p90 })
		out.info["host_steal_share"] = arm.usage.stealShare
		return out, nil
	}

	// Traced run: an untraced arm and a traced arm, both on one worker
	// so the replay's per-call allocation deltas attribute cleanly and
	// the two arms' engine times compare like for like.
	half := cfg.duration() / 2
	plain := corpusPasses(cfg, mods, 1, half, false, out)
	traced := corpusPasses(cfg, mods, 1, half, true, out)
	layerMetrics(out, traced.samples)
	shares := make([]float64, len(traced.samples))
	for i := range traced.samples {
		e := traced.engineUs[i]
		shares[i] = (e - us(traced.samples[i].total())) / e
	}
	out.metrics["ledger.unattributed_share"] = median(shares)
	out.metrics["ledger.trace_overhead_share"] = median(traced.engineUs)/(1000*median(plain.lat)) - 1
	out.metrics["service.engine_us"] = median(traced.engineUs)
	out.metrics["loadgen.cold_p50_ms"] = median(plain.lat)
	out.metrics["loadgen.latency_p90_ms"] = quantile(plain.lat, 0.9)
	runtimeMetrics(out, plain.usage, len(plain.lat), plain.heapMB)
	// No memo, cache, HTTP, gateway or module graph on this path.
	out.metrics["solve.memo_replay_ratio"] = 0
	for _, n := range []string{"service.decode_us", "service.cachekey_us", "service.marshal_us",
		"service.server_us", "service.cache_hit_ratio", "service.refused",
		"loadgen.late_p90_ms", "loadgen.shed", "loadgen.edit_p50_ms", "loadgen.resave_p50_ms", "loadgen.hit_p50_ms"} {
		out.metrics[n] = 0
	}
	bypassed(out, "funcidx", "client", "gateway", "modgraph")
	out.info["untraced_passes"] = plain.passes
	out.info["traced_passes"] = traced.passes
	return out, nil
}
