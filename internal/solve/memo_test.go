package solve_test

// Differential tests for the component-summary memo (solve.Memo): a
// memoized solve — cold (populating) or warm (replaying) — must be
// indistinguishable from the sequential solver: identical
// per-variable atom lists, identical violations, identical Stats,
// same fired-cond sets. On top of that, the memo's whole point is position independence: an identical
// program whose source merely shifted (a comment added above it) must
// replay every component without solving anything.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"localalias/internal/core"
	"localalias/internal/effects"
	"localalias/internal/faults"
	"localalias/internal/infer"
	"localalias/internal/locs"
	"localalias/internal/progen"
	"localalias/internal/solve"
)

// randomClusterSystem builds k independent random constraint clusters
// in one system — disjoint variables and locations per cluster, so the
// propagation graph has several connected components and the memo
// path genuinely partitions.
func randomClusterSystem(seed int64, k int) *effects.System {
	ls := locs.NewStore()
	sys := effects.NewSystem(ls)
	for i := 0; i < k; i++ {
		r := rand.New(rand.NewSource(seed*1009 + int64(i)))
		buildRandomCondInto(sys, r)
	}
	return sys
}

// requireExactMatch asserts the partitioned result par is exactly the
// sequential result: identical atom lists per variable, identical
// violations (including diagnostic strings), identical stats.
func requireExactMatch(t *testing.T, label string,
	seqSys *effects.System, seq *solve.Result,
	parSys *effects.System, par *solve.Result) bool {
	t.Helper()
	if seqSys.NumVars() != parSys.NumVars() {
		t.Logf("%s: nondeterministic build: %d vs %d vars", label, seqSys.NumVars(), parSys.NumVars())
		return false
	}
	if seq.Stats != par.Stats {
		t.Logf("%s: stats differ\n sequential: %v\n memoized:   %v", label, seq.Stats, par.Stats)
		return false
	}
	for v := 0; v < seqSys.NumVars(); v++ {
		sa, pa := seq.Atoms(effects.Var(v)), par.Atoms(effects.Var(v))
		if !reflect.DeepEqual(sa, pa) {
			t.Logf("%s: var %d atoms differ\n sequential: %v\n memoized:   %v", label, v, sa, pa)
			return false
		}
	}
	sv, pv := seq.Violations(), par.Violations()
	if !reflect.DeepEqual(sv, pv) {
		t.Logf("%s: violations differ\n sequential: %v\n memoized:   %v", label, sv, pv)
		return false
	}
	sf, pf := firedSet(seqSys, seq.Fired), firedSet(parSys, par.Fired)
	if len(sf) != len(pf) {
		t.Logf("%s: fired %d vs %d conds", label, len(sf), len(pf))
		return false
	}
	for i := range sf {
		if !pf[i] {
			t.Logf("%s: cond %d fired only sequentially", label, i)
			return false
		}
	}
	return true
}

// solveMemoized runs SolveOpts with the given memo, returning the
// result and the per-run reuse counters.
func solveMemoized(sys *effects.System, memo *solve.Memo) (*solve.Result, *solve.MemoCounters) {
	var c solve.MemoCounters
	res := solve.SolveOpts(context.Background(), sys, solve.Options{
		Memo:     memo,
		Counters: &c,
	})
	return res, &c
}

// TestMemoMatchesSequentialQuick checks both memo phases against the
// sequential solver on random multi-component systems: the cold run
// (every component solved fresh and recorded) and the warm run (every
// component replayed from its summary) must each reproduce the
// sequential result exactly.
func TestMemoMatchesSequentialQuick(t *testing.T) {
	prop := func(seed int64) bool {
		memo := solve.NewMemo(0)
		seqSys := randomClusterSystem(seed, 4)
		seq := solve.Solve(seqSys)

		coldSys := randomClusterSystem(seed, 4)
		cold, _ := solveMemoized(coldSys, memo)
		if !requireExactMatch(t, fmt.Sprintf("seed %d cold", seed), seqSys, seq, coldSys, cold) {
			return false
		}

		warmSys := randomClusterSystem(seed, 4)
		warm, wc := solveMemoized(warmSys, memo)
		if !requireExactMatch(t, fmt.Sprintf("seed %d warm", seed), seqSys, seq, warmSys, warm) {
			return false
		}
		if wc.Replayed.Load() == 0 {
			t.Logf("seed %d: warm run replayed no components", seed)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMemoMatchesSequentialProgen runs the full inference pipeline on
// random well-typed programs and requires cold and warm memoized
// solves to reproduce the sequential solver exactly, and the
// reference solver up to set equality.
func TestMemoMatchesSequentialProgen(t *testing.T) {
	n := int64(200)
	if testing.Short() {
		n = 40
	}
	build := func(seed int64) *effects.System {
		src := progen.Generate(seed)
		mod, err := core.LoadModule("p.mc", src)
		if err != nil {
			t.Fatalf("seed %d: progen program fails to load: %v", seed, err)
		}
		res := infer.Run(mod.TInfo, mod.Diags, infer.Options{InferRestrictLets: true})
		return res.Sys
	}
	for seed := int64(0); seed < n; seed++ {
		label := fmt.Sprintf("progen seed %d", seed)
		memo := solve.NewMemo(0)
		seqSys := build(seed)
		seq := solve.Solve(seqSys)

		coldSys := build(seed)
		cold, _ := solveMemoized(coldSys, memo)
		if !requireExactMatch(t, label+" cold", seqSys, seq, coldSys, cold) {
			t.Fatalf("%s: cold memoized result differs from sequential", label)
		}

		warmSys := build(seed)
		warm, _ := solveMemoized(warmSys, memo)
		if !requireExactMatch(t, label+" warm", seqSys, seq, warmSys, warm) {
			t.Fatalf("%s: warm memoized result differs from sequential", label)
		}

		refSys := build(seed)
		ref := solve.SolveReference(refSys)
		compareSolutions(t, label, warmSys, warm, refSys, ref)
	}
}

// TestMemoWarmReplaysAllComponents pins the reuse accounting: after a
// cold run records every component, an identical warm run must replay
// all of them and solve none.
func TestMemoWarmReplaysAllComponents(t *testing.T) {
	memo := solve.NewMemo(0)
	cold, cc := solveMemoized(randomClusterSystem(7, 6), memo)
	if cc.Solved.Load() < 2 {
		t.Fatalf("system did not partition: %d components solved", cc.Solved.Load())
	}
	if cc.Replayed.Load() != 0 {
		t.Fatalf("cold run replayed %d components from an empty memo", cc.Replayed.Load())
	}
	warm, wc := solveMemoized(randomClusterSystem(7, 6), memo)
	if wc.Solved.Load() != 0 {
		t.Fatalf("warm run solved %d components fresh; want 0", wc.Solved.Load())
	}
	if wc.Replayed.Load() != cc.Solved.Load() {
		t.Fatalf("warm run replayed %d components; cold run solved %d",
			wc.Replayed.Load(), cc.Solved.Load())
	}
	if cold.Stats != warm.Stats {
		t.Fatalf("stats differ between cold and warm runs\n cold: %v\n warm: %v",
			cold.Stats, warm.Stats)
	}
	st := memo.Stats()
	if st.Hits == 0 || st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("implausible memo stats: %+v", st)
	}
}

// TestMemoPositionIndependence is the incremental engine's core claim
// at the solver level: the same program with shifted source positions
// (comment lines added above it) must hit the memo on every component
// — location names and constraint sites embed positions, and the
// fingerprint must exclude all of them.
func TestMemoPositionIndependence(t *testing.T) {
	build := func(src string) *effects.System {
		mod, err := core.LoadModule("p.mc", src)
		if err != nil {
			t.Fatalf("program fails to load: %v", err)
		}
		res := infer.Run(mod.TInfo, mod.Diags, infer.Options{InferRestrictLets: true})
		return res.Sys
	}
	// Find a progen program whose system actually partitions, so the
	// all-components-replayed assertion has teeth.
	found := false
	for seed := int64(0); seed < 50 && !found; seed++ {
		src := progen.Generate(seed)
		memo := solve.NewMemo(0)
		_, cc := solveMemoized(build(src), memo)
		if cc.Solved.Load() < 2 {
			continue
		}
		found = true

		shifted := "// a comment that shifts every span below\n\n\n" + src
		seqSys := build(shifted)
		seq := solve.Solve(seqSys)
		warmSys := build(shifted)
		warm, wc := solveMemoized(warmSys, memo)
		if wc.Solved.Load() != 0 {
			t.Errorf("seed %d: shifted source re-solved %d components; want pure replay",
				seed, wc.Solved.Load())
		}
		if wc.Replayed.Load() != cc.Solved.Load() {
			t.Errorf("seed %d: shifted source replayed %d of %d components",
				seed, wc.Replayed.Load(), cc.Solved.Load())
		}
		if !requireExactMatch(t, fmt.Sprintf("seed %d shifted", seed), seqSys, seq, warmSys, warm) {
			t.Errorf("seed %d: replay of shifted source differs from its own sequential solve", seed)
		}
	}
	if !found {
		t.Fatal("no progen seed in [0,50) produced a multi-component system")
	}
}

// TestMemoEvictionFallsBackCold runs a capacity-1 memo over systems
// with many components: almost every probe misses and entries churn
// constantly, and the result must still match the sequential solver
// exactly — eviction degrades reuse, never correctness.
func TestMemoEvictionFallsBackCold(t *testing.T) {
	memo := solve.NewMemo(1)
	for seed := int64(0); seed < 20; seed++ {
		seqSys := randomClusterSystem(seed, 6)
		seq := solve.Solve(seqSys)
		gotSys := randomClusterSystem(seed, 6)
		got, _ := solveMemoized(gotSys, memo)
		if !requireExactMatch(t, fmt.Sprintf("seed %d", seed), seqSys, seq, gotSys, got) {
			t.Fatalf("seed %d: capacity-1 memoized result differs from sequential", seed)
		}
	}
	st := memo.Stats()
	if st.Evictions == 0 {
		t.Fatalf("capacity-1 memo over %d-component systems never evicted: %+v", 6, st)
	}
	if st.Entries > 1 {
		t.Fatalf("capacity-1 memo holds %d entries", st.Entries)
	}
}

// TestMemoStatsDeterministic repeats warm solves and requires the
// wire-visible Stats to never wobble.
func TestMemoStatsDeterministic(t *testing.T) {
	memo := solve.NewMemo(0)
	base, _ := solveMemoized(randomClusterSystem(9, 6), memo)
	if base.Stats.Vars == 0 || base.Stats.AtomsPropagated == 0 {
		t.Fatalf("implausibly empty stats: %v", base.Stats)
	}
	for rep := 0; rep < 4; rep++ {
		got, _ := solveMemoized(randomClusterSystem(9, 6), memo)
		if got.Stats != base.Stats {
			t.Fatalf("rep=%d: stats differ\n cold: %v\n warm: %v", rep, base.Stats, got.Stats)
		}
	}
}

// TestMemoDeadlineAbort proves a deadline expiring while the memo path
// solves its misses surfaces as a KindTimeout failure from the
// caller's guard, not as a panic or a hang.
func TestMemoDeadlineAbort(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: the first miss aborts on its first check
	tr := faults.NewTrace("m")
	fail := faults.Run("m", tr, func() error {
		solve.SolveOpts(ctx, randomClusterSystem(3, 6), solve.Options{Memo: solve.NewMemo(0)})
		return nil
	})
	if fail == nil {
		t.Fatal("expected a timeout failure, got success")
	}
	if fail.Kind != faults.KindTimeout {
		t.Fatalf("expected %s, got %s (%s)", faults.KindTimeout, fail.Kind, fail.Message)
	}
}
