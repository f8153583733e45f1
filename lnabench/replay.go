package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"localalias/internal/ast"
	"localalias/internal/confine"
	"localalias/internal/core"
	"localalias/internal/drivergen"
	"localalias/internal/effects"
	"localalias/internal/infer"
	"localalias/internal/lexer"
	"localalias/internal/parser"
	"localalias/internal/qual"
	"localalias/internal/solve"
	"localalias/internal/source"
	"localalias/internal/types"
)

// The pipeline layers the replay times, named after their packages.
type layer int

const (
	lLexer layer = iota
	lParser
	lTypes
	lInfer
	lSolve
	lQual
	lConfine
	nLayers
)

var layerNames = [nLayers]string{"lexer", "parser", "types", "infer", "solve", "qual", "confine"}

// layerSample is one module's replayed pipeline: busy time and heap
// bytes allocated per layer, plus the work counts each layer reports.
type layerSample struct {
	busy            [nLayers]time.Duration
	alloc           [nLayers]uint64
	tokens          int
	constraints     int
	atomsPropagated int
	planted         int
	kept            int
	triple          drivergen.Triple
}

func (s *layerSample) add(o layerSample) {
	for l := range s.busy {
		s.busy[l] += o.busy[l]
		s.alloc[l] += o.alloc[l]
	}
	s.tokens += o.tokens
	s.constraints += o.constraints
	s.atomsPropagated += o.atomsPropagated
	s.planted += o.planted
	s.kept += o.kept
}

func (s *layerSample) total() time.Duration {
	var t time.Duration
	for _, b := range s.busy {
		t += b
	}
	return t
}

// firstPass is the pipeline up to the two baseline qualifier runs;
// confine is the whole second pass on top of it.
func (s *layerSample) firstPass() time.Duration { return s.total() - s.busy[lConfine] }

// importEnv is what one module of a multi-module program sees of its
// dependencies (nil for a standalone module).
type importEnv struct {
	sigs      types.ImportSigs
	effects   map[string][]effects.Mask
	transfers [core.NumVariants]qual.Transfers
	// export computes the module's own transfer tables, as the
	// whole-program pass does for every module it analyzes.
	export bool
}

// measure runs f and returns its wall time and the heap bytes it
// allocated. The bytes come from runtime.ReadMemStats, which flushes
// every P's allocation cache, so the count is exact when nothing else
// allocates concurrently (traced runs replay on one goroutine while no
// requests are in flight).
func measure(f func()) (time.Duration, uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	runtime.ReadMemStats(&b)
	return d, b.TotalAlloc - a.TotalAlloc
}

// timed runs f as part of layer l.
func (s *layerSample) timed(l layer, f func()) {
	d, n := measure(f)
	s.busy[l] += d
	s.alloc[l] += n
}

// replay runs one module through the pipeline in
// core.AnalyzeLockingCtx order, one public layer call at a time:
// lexer.ScanAll, parser.Parse (net of its own lexing), types.CheckWith,
// infer.Run, solve.SolveOpts, qual.AnalyzeWith twice,
// confine.InferAndApply plus the final qual.AnalyzeWith (the whole
// confine second pass). The three-mode error triple is returned so the
// replay is held to the same oracle as the real engine.
func replay(name, src string, env *importEnv) (layerSample, error) {
	var s layerSample
	if env == nil {
		env = &importEnv{}
	}
	var toks []lexer.Token
	s.timed(lLexer, func() {
		toks = lexer.ScanAll(source.NewFile(name, src), &source.Diagnostics{})
	})
	s.tokens = len(toks)

	diags := &source.Diagnostics{}
	var prog *ast.Program
	s.timed(lParser, func() { prog = parser.Parse(name, src, diags) })
	s.busy[lParser] = max(s.busy[lParser]-s.busy[lLexer], 0)
	s.alloc[lParser] -= min(s.alloc[lParser], s.alloc[lLexer])
	if diags.HasErrors() {
		return s, fmt.Errorf("%s: parse: %w", name, diags.Err())
	}

	var tinfo *types.Info
	s.timed(lTypes, func() { tinfo = types.CheckWith(prog, diags, env.sigs) })
	if diags.HasErrors() {
		return s, fmt.Errorf("%s: typecheck: %w", name, diags.Err())
	}

	var res *infer.Result
	s.timed(lInfer, func() {
		res = infer.Run(tinfo, diags, infer.Options{ImportEffects: env.effects})
	})
	if res.InternalErrors > 0 {
		return s, fmt.Errorf("%s: infer: %w", name, diags.Err())
	}
	sys := res.Sys
	s.constraints = len(sys.Incls) + len(sys.VarIncls) + len(sys.AtomIncls) +
		len(sys.NotIns) + len(sys.KindNotIns) + len(sys.PairNotIns) + len(sys.Conds)

	var sol *solve.Result
	s.timed(lSolve, func() { sol = solve.SolveOpts(context.Background(), sys, solve.Options{}) })
	s.atomsPropagated = sol.Stats.AtomsPropagated

	var noConfine, allStrong *qual.Report
	s.timed(lQual, func() {
		noConfine = qual.AnalyzeWith(res, sol, qual.ModePlain, env.transfers[core.VariantNoConfine])
		allStrong = qual.AnalyzeWith(res, sol, qual.ModeAllStrong, env.transfers[core.VariantAllStrong])
	})

	var cres *confine.Result
	var err error
	s.timed(lConfine, func() {
		cres, err = confine.InferAndApply(prog, diags, confine.Options{
			Params:        true,
			Lets:          true,
			Imports:       env.sigs,
			ImportEffects: env.effects,
		})
	})
	if err != nil {
		return s, fmt.Errorf("%s: confine: %w", name, err)
	}
	var withConfine *qual.Report
	s.timed(lConfine, func() {
		withConfine = qual.AnalyzeWith(cres.Infer, cres.Solution, qual.ModePlain, env.transfers[core.VariantWithConfine])
	})
	if env.export {
		s.timed(lQual, func() {
			qual.ComputeTransfers(res, sol, qual.ModePlain, env.transfers[core.VariantNoConfine])
			qual.ComputeTransfers(res, sol, qual.ModeAllStrong, env.transfers[core.VariantAllStrong])
			qual.ComputeTransfers(cres.Infer, cres.Solution, qual.ModePlain, env.transfers[core.VariantWithConfine])
		})
	}
	sol.Release()
	s.planted = cres.Planted
	s.kept = len(cres.Kept)
	s.triple = drivergen.Triple{
		NoConfine: noConfine.NumErrors(),
		Confine:   withConfine.NumErrors(),
		AllStrong: allStrong.NumErrors(),
	}
	return s, nil
}

// layerMetrics fills the pipeline layers' ledger entries from a set of
// per-request samples: medians per request, plus the confine ratios
// over the whole set (ratios of totals, like the paper's 28.5 s vs
// 26.0 s).
func layerMetrics(out *outcome, samples []layerSample) {
	col := func(f func(s *layerSample) float64) float64 {
		xs := make([]float64, len(samples))
		for i := range samples {
			xs[i] = f(&samples[i])
		}
		return median(xs)
	}
	for l := layer(0); l < nLayers; l++ {
		out.metrics[layerNames[l]+".busy_us"] = col(func(s *layerSample) float64 { return us(s.busy[l]) })
		out.metrics[layerNames[l]+".alloc_kb"] = col(func(s *layerSample) float64 { return float64(s.alloc[l]) / 1024 })
	}
	out.metrics["lexer.tokens"] = col(func(s *layerSample) float64 { return float64(s.tokens) })
	out.metrics["infer.constraints"] = col(func(s *layerSample) float64 { return float64(s.constraints) })
	out.metrics["solve.atoms_propagated"] = col(func(s *layerSample) float64 { return float64(s.atomsPropagated) })
	out.metrics["confine.planted"] = col(func(s *layerSample) float64 { return float64(s.planted) })
	var planted, kept int
	var first, conf time.Duration
	for i := range samples {
		planted += samples[i].planted
		kept += samples[i].kept
		first += samples[i].firstPass()
		conf += samples[i].busy[lConfine]
	}
	out.metrics["confine.kept_ratio"] = 0
	if planted > 0 {
		out.metrics["confine.kept_ratio"] = float64(kept) / float64(planted)
	}
	out.metrics["confine.overhead_ratio"] = 0
	if first > 0 {
		out.metrics["confine.overhead_ratio"] = float64(first+conf) / float64(first)
	}
	out.metrics["ledger.samples"] = float64(len(samples))
	out.info["ledger_samples"] = len(samples)
}

// bypassed sets every per-layer metric of the named layers to 0: the
// layers a workload does not exercise at all.
func bypassed(out *outcome, layers ...string) {
	for _, d := range perLayer {
		for _, l := range layers {
			if strings.HasPrefix(d.name, l+".") {
				out.metrics[d.name] = 0
			}
		}
	}
}
