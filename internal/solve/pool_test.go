package solve_test

import (
	"fmt"
	"reflect"
	"testing"

	"localalias/internal/effects"
	"localalias/internal/solve"
)

// TestPooledSolveReuse runs many solves back to back with Release, so
// every pooled buffer is recycled, and requires each round to
// reproduce the first round's answers — stale state leaking through
// the pools would show up immediately.
func TestPooledSolveReuse(t *testing.T) {
	snapshot := func() []string {
		// A fresh memo keeps the partitioned solve cold, so every
		// component runs on a pooled interner.
		sys := randomClusterSystem(11, 4)
		res := solve.SolveOpts(nil, sys, solve.Options{Memo: solve.NewMemo(0)})
		defer res.Release()
		var out []string
		for v := 0; v < sys.NumVars(); v++ {
			out = append(out, fmt.Sprint(res.Atoms(effects.Var(v))))
		}
		out = append(out, res.Stats.String())

		// Interleave a sequential pooled solve of a different system so
		// the scratch comes back dirty.
		other := solve.Solve(randomClusterSystem(13, 2))
		out = append(out, other.Stats.String())
		other.Release()
		return out
	}
	want := snapshot()
	for i := 0; i < 10; i++ {
		if got := snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d diverged from round 0:\n got:  %v\n want: %v", i, got, want)
		}
	}
}

// TestResultReleasePanics pins the use-after-Release contract.
func TestResultReleasePanics(t *testing.T) {
	res := solve.Solve(randomCondSystem(5))
	res.Release()
	res.Release() // double release is a no-op
	defer func() {
		if recover() == nil {
			t.Fatal("accessor after Release did not panic")
		}
	}()
	res.Atoms(0)
}
