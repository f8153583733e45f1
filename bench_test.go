// Benchmarks regenerating each experiment of the paper's evaluation:
//
//	E1 BenchmarkCorpusSummary        — Section 7 summary over 589 modules
//	E2 BenchmarkFigure6              — the eliminated-errors histogram
//	E3 BenchmarkFigure7              — the 14 partially-recovered modules
//	E4 BenchmarkConfineOverhead      — analysis time with vs without confine
//	E5 BenchmarkRestrictCheckScaling — O(kn) checking
//	E6 BenchmarkRestrictInferScaling — O(n²) inference
//	E7 BenchmarkConfineBackwardSearch— the Section 6.2 backward search
//	   BenchmarkAblationNoDown       — cost/effect of removing (Down)
//	   BenchmarkScopeHeuristic       — syntactic heuristic vs general search
//
// Reported custom metrics carry the experiment's headline quantity
// (e.g. eliminated-rate for E1) so `go test -bench` output documents
// the reproduction, not just its speed. End-to-end request costs
// (daemon, gateway, per-layer ledger) are measured by the lnabench
// module: `bash lnabench/run.sh`.
package localalias

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"localalias/internal/core"
	"localalias/internal/drivergen"
	"localalias/internal/experiments"
	"localalias/internal/infer"
	"localalias/internal/restrict"
	"localalias/internal/solve"
	"localalias/internal/source"
	"localalias/internal/types"
)

// ---------------------------------------------------------------------
// E1–E3: the corpus experiments

// The body lives in internal/experiments (bench.go), next to the
// corpus driver it measures.
func BenchmarkCorpusSummary(b *testing.B) { experiments.BenchCorpusSummary(b) }

// BenchmarkCorpusSummaryTraced is the same corpus run with the
// observability path enabled (a span trace per module, as under the
// daemon); its delta against BenchmarkCorpusSummary bounds the
// tracing overhead.
func BenchmarkCorpusSummaryTraced(b *testing.B) { experiments.BenchCorpusSummaryTraced(b) }

func BenchmarkFigure6(b *testing.B) {
	// The histogram inputs are the strong-updates-matter modules.
	var specs []*drivergen.ModuleSpec
	for _, m := range drivergen.Corpus() {
		if m.Category == drivergen.FullRecovery || m.Category == drivergen.Partial {
			specs = append(specs, m)
		}
	}
	var res *experiments.CorpusResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunCorpus(context.Background(), experiments.CorpusOptions{Specs: specs})
	}
	b.StopTimer()
	fig := res.Figure6()
	if !strings.Contains(fig, "Figure 6") {
		b.Fatal("bad rendering")
	}
	b.ReportMetric(float64(len(specs)), "modules")
}

func BenchmarkFigure7(b *testing.B) {
	var specs []*drivergen.ModuleSpec
	for _, m := range drivergen.Corpus() {
		if m.Category == drivergen.Partial {
			specs = append(specs, m)
		}
	}
	var res *experiments.CorpusResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunCorpus(context.Background(), experiments.CorpusOptions{Specs: specs})
	}
	b.StopTimer()
	for _, m := range res.Modules {
		if m.Err != nil || m.Measured != m.Spec.Expected {
			b.Fatalf("%s: %+v vs %+v (err %v)", m.Spec.Name, m.Measured, m.Spec.Expected, m.Err)
		}
	}
	b.ReportMetric(float64(len(specs)), "modules")
}

// ---------------------------------------------------------------------
// E4: confine-inference overhead (paper: ide-tape, 28.5s vs 26.0s)

func BenchmarkConfineOverhead(b *testing.B) {
	b.Run("without-confine", func(b *testing.B) { experiments.BenchConfineOverhead(b, false) })
	b.Run("with-confine", func(b *testing.B) { experiments.BenchConfineOverhead(b, true) })
}

// ---------------------------------------------------------------------
// E5/E6: complexity scaling

// scalingProgram builds a program with funcs functions; the first k
// contain an explicit restrict (see experiments.ScalingProgram).
func scalingProgram(funcs, k int) string {
	return experiments.ScalingProgram(funcs, k)
}

func benchCheck(b *testing.B, funcs, k int) {
	src := scalingProgram(funcs, k)
	var diags source.Diagnostics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mod, err := core.LoadModule("scale.mc", src)
		if err != nil {
			b.Fatal(err)
		}
		r := restrict.Check(mod.TInfo, mod.Diags)
		if !r.OK() || !r.UsedFigure5 {
			b.Fatalf("scaling program must check via Figure 5")
		}
	}
	_ = diags
}

func BenchmarkRestrictCheckScaling(b *testing.B) {
	// n sweep with k proportional to n (the paper's O(kn) has both
	// growing in a real program).
	for _, funcs := range []int{25, 50, 100, 200, 400} {
		b.Run(fmt.Sprintf("n=%dfuncs", funcs), func(b *testing.B) {
			benchCheck(b, funcs, funcs)
		})
	}
	// k sweep at fixed n: the per-check cost is the O(n) CHECK-SAT.
	for _, k := range []int{1, 25, 50, 100} {
		b.Run(fmt.Sprintf("k=%d_n=100funcs", k), func(b *testing.B) {
			benchCheck(b, 100, k)
		})
	}
}

func BenchmarkRestrictInferScaling(b *testing.B) {
	for _, funcs := range []int{25, 50, 100, 200, 400} {
		src := scalingProgram(funcs, 0)
		b.Run(fmt.Sprintf("n=%dfuncs", funcs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mod, err := core.LoadModule("scale.mc", src)
				if err != nil {
					b.Fatal(err)
				}
				res := mod.InferRestrict(false)
				if len(res.Restricted) == 0 {
					b.Fatal("inference found nothing")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// E7: backward search vs forward CHECK-SAT

func BenchmarkConfineBackwardSearch(b *testing.B) {
	src := scalingProgram(300, 300)
	mod, err := core.LoadModule("scale.mc", src)
	if err != nil {
		b.Fatal(err)
	}
	res := infer.Run(mod.TInfo, mod.Diags, infer.Options{})
	sys := res.Sys

	b.Run("forward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := solve.NewChecker(sys)
			for _, ni := range sys.NotIns {
				if !c.Sat(ni) {
					b.Fatal("unexpected violation")
				}
			}
		}
	})
	b.Run("backward-prefilter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := solve.NewChecker(sys)
			for _, ni := range sys.NotIns {
				if !c.SatBackward(ni) {
					b.Fatal("unexpected violation")
				}
			}
		}
	})
}

// ---------------------------------------------------------------------
// Ablations

func BenchmarkAblationNoDown(b *testing.B) {
	// A recursion-heavy program where (Down) keeps latent effects
	// small. NoDown lets temporary locations leak into latent
	// effects, growing the constraint solution.
	var sb strings.Builder
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&sb, `
fun rec%d(n: int): int {
    if (n == 0) {
        return 0;
    }
    let tmp = new %d;
    restrict p = tmp {
        *p = rec%d(n - 1);
        return *p;
    }
    return 0;
}
`, i, i, i)
	}
	src := sb.String()

	run := func(b *testing.B, noDown bool) int {
		var violations int
		for i := 0; i < b.N; i++ {
			mod, err := core.LoadModule("rec.mc", src)
			if err != nil {
				b.Fatal(err)
			}
			res := infer.Run(mod.TInfo, mod.Diags, infer.Options{NoDown: noDown})
			violations = len(solve.Solve(res.Sys).Violations())
		}
		return violations
	}
	b.Run("with-down", func(b *testing.B) {
		if v := run(b, false); v != 0 {
			b.Fatalf("with (Down) the restricts must check; got %d violations", v)
		}
	})
	b.Run("no-down", func(b *testing.B) {
		v := run(b, true)
		b.ReportMetric(float64(v), "spurious-violations")
		if v == 0 {
			b.Fatal("ablation must produce spurious violations (Section 3.1)")
		}
	})
}

func BenchmarkScopeHeuristic(b *testing.B) {
	var spec *drivergen.ModuleSpec
	for _, m := range drivergen.Corpus() {
		if m.Name == "emu10k1" {
			spec = m
		}
	}
	src := spec.Source()
	for _, general := range []bool{false, true} {
		name := "heuristic"
		if general {
			name = "general"
		}
		b.Run(name, func(b *testing.B) {
			var errs int
			for i := 0; i < b.N; i++ {
				mod, err := core.LoadModule("emu10k1.mc", src)
				if err != nil {
					b.Fatal(err)
				}
				lr, err := mod.AnalyzeLocking(core.LockingOptions{General: general})
				if err != nil {
					b.Fatal(err)
				}
				errs = lr.WithConfine.NumErrors()
			}
			b.ReportMetric(float64(errs), "errors")
		})
	}
}

// ---------------------------------------------------------------------
// Micro: solver throughput

func BenchmarkSolverPropagation(b *testing.B) { experiments.BenchSolverPropagation(b) }

// BenchmarkSolverPropagationTraced runs the same workload inside a
// phase trace carrying obs spans (the instrumented pipeline path).
func BenchmarkSolverPropagationTraced(b *testing.B) { experiments.BenchSolverPropagationTraced(b) }

// BenchmarkSolverSteadyState times exactly solve+Release per op (the
// constraint system is rebuilt with the timer stopped) — the
// per-request cost a resident daemon pays with the solver's pooled
// storage.
func BenchmarkSolverSteadyState(b *testing.B) {
	b.Run("pooled", experiments.BenchSolverSolveOnly)
}

// Guard: the scaling generator must produce type-correct programs.
func TestScalingProgramsCompile(t *testing.T) {
	for _, funcs := range []int{5, 50} {
		src := scalingProgram(funcs, funcs/2)
		var diags source.Diagnostics
		if _, err := core.LoadModule("scale.mc", src); err != nil {
			t.Fatalf("funcs=%d: %v", funcs, err)
		}
		_ = diags
		_ = types.IntType
	}
}
