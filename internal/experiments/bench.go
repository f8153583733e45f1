package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"localalias/internal/confine"
	"localalias/internal/core"
	"localalias/internal/drivergen"
	"localalias/internal/faults"
	"localalias/internal/infer"
	"localalias/internal/obs"
	"localalias/internal/qual"
	"localalias/internal/solve"
)

// This file holds benchmark bodies the root bench_test.go delegates
// to, so `go test -bench` at the repository root measures exactly the
// code paths the experiment driver runs. End-to-end performance is
// measured by the lnabench module (see lnabench/README.md).

// ScalingProgram builds a program with funcs functions; the first k
// contain an explicit restrict. Program size n grows linearly with
// funcs.
func ScalingProgram(funcs, k int) string {
	var sb strings.Builder
	for i := 0; i < funcs; i++ {
		fmt.Fprintf(&sb, "fun f%d(q: ref int): int {\n", i)
		if i < k {
			fmt.Fprintf(&sb, "    restrict p = q {\n        *p = *p + %d;\n    }\n", i)
		} else {
			fmt.Fprintf(&sb, "    let p = q;\n    *p = *p + %d;\n", i)
		}
		sb.WriteString("    let t = new 1;\n")
		sb.WriteString("    *t = *t + *q;\n")
		sb.WriteString("    return *t;\n}\n\n")
	}
	return sb.String()
}

// BenchSolverPropagation measures inference + solve throughput on a
// 200-function program with let-or-restrict conditional constraints
// (parsing and standard checking excluded).
func BenchSolverPropagation(b *testing.B) {
	src := ScalingProgram(200, 0)
	mod, err := core.LoadModule("scale.mc", src)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res := infer.Run(mod.TInfo, mod.Diags, infer.Options{InferRestrictLets: true})
		sol := solve.Solve(res.Sys)
		if sol.AtomsPropagated == 0 {
			b.Fatal("solver propagated no atoms on the scaling program")
		}
	}
}

// BenchSolverPropagationTraced is BenchSolverPropagation with the
// full observability path enabled: every iteration runs inside a
// phase trace carrying obs spans, the way a daemon request or a
// -trace-out run does. The delta against the plain benchmark bounds
// the cost of tracing.
func BenchSolverPropagationTraced(b *testing.B) {
	src := ScalingProgram(200, 0)
	mod, err := core.LoadModule("scale.mc", src)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tr := faults.NewTrace("scale.mc")
		tr.SetSpans(obs.NewTrace("scale.mc"))
		tr.Enter(faults.PhaseInfer)
		res := infer.Run(mod.TInfo, mod.Diags, infer.Options{InferRestrictLets: true})
		tr.Enter(faults.PhaseSolve)
		sol := solve.Solve(res.Sys)
		tr.Enter(faults.PhaseQual)
		if sol.AtomsPropagated == 0 {
			b.Fatal("solver propagated no atoms on the scaling program")
		}
	}
}

// benchCorpusSummary measures the full E1 experiment: the three-mode
// analysis of all 589 corpus modules. traced selects the observability
// path (per-module span traces, as under the daemon).
func benchCorpusSummary(b *testing.B, traced bool) {
	specs := drivergen.Corpus()
	var res *CorpusResult
	for i := 0; i < b.N; i++ {
		res = RunCorpus(context.Background(), CorpusOptions{Specs: specs, Traced: traced})
	}
	b.StopTimer()
	if res.Degraded() {
		b.Fatalf("%d of %d modules failed or timed out", res.Failed+res.TimedOut, len(res.Modules))
	}
	if res.Mismatches != 0 {
		b.Fatalf("%d corpus mismatches", res.Mismatches)
	}
	b.ReportMetric(float64(res.Eliminated), "eliminated")
	b.ReportMetric(float64(res.Potential), "potential")
	b.ReportMetric(res.EliminationRate()*100, "%eliminated")
}

// BenchCorpusSummary is the plain (untraced) corpus benchmark.
func BenchCorpusSummary(b *testing.B) { benchCorpusSummary(b, false) }

// BenchCorpusSummaryTraced runs the corpus with per-module span
// traces attached, bounding the daemon's tracing overhead at corpus
// scale.
func BenchCorpusSummaryTraced(b *testing.B) { benchCorpusSummary(b, true) }

// BenchConfineOverhead measures one full analysis of ide_tape (the E4
// module) with or without confine inference.
func BenchConfineOverhead(b *testing.B, withConfine bool) {
	var spec *drivergen.ModuleSpec
	for _, m := range drivergen.Corpus() {
		if m.Name == "ide_tape" {
			spec = m
		}
	}
	if spec == nil {
		b.Fatal("module ide_tape not found in the corpus")
	}
	src := spec.Source()
	for i := 0; i < b.N; i++ {
		mod, err := core.LoadModule("ide_tape.mc", src)
		if err != nil {
			b.Fatal(err)
		}
		if withConfine {
			cres, err := confine.InferAndApply(mod.Prog, mod.Diags, confine.Options{Params: true, Info: mod.TInfo})
			if err != nil {
				b.Fatal(err)
			}
			qual.Analyze(cres.Infer, cres.Solution, qual.ModePlain)
		} else {
			res := infer.Run(mod.TInfo, mod.Diags, infer.Options{})
			sol := solve.Solve(res.Sys)
			qual.Analyze(res, sol, qual.ModePlain)
		}
	}
}

// BenchSolverSolveOnly measures the steady-state constraint solve in
// isolation: every iteration rebuilds the constraint system with the
// timer (and allocation accounting) stopped, then times exactly
// solve+Release — the per-request cost a resident daemon pays, with
// the solver's pooled scratch and retained storage.
func BenchSolverSolveOnly(b *testing.B) {
	src := ScalingProgram(200, 0)
	mod, err := core.LoadModule("scale.mc", src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		res := infer.Run(mod.TInfo, mod.Diags, infer.Options{InferRestrictLets: true})
		b.StartTimer()
		sol := solve.Solve(res.Sys)
		if sol.AtomsPropagated == 0 {
			b.Fatal("solver propagated no atoms on the scaling program")
		}
		sol.Release()
	}
}
