package service

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"localalias/internal/solve"
)

// incBase is a module with several independent functions, so its
// constraint systems partition into multiple components and an edit to
// one function leaves the others' summaries replayable.
const incBase = `
fun alpha(x: ref int): int {
    restrict a = x {
        return *a;
    }
    return 0;
}

fun beta(y: ref int): int {
    restrict b = y {
        let c = y;
        return *b;
    }
    return 0;
}

fun gamma(z: ref int): int {
    let g = z;
    restrict c = z {
        return *c;
    }
    return 0;
}
`

// incAnalyze runs one request through an Incremental engine and checks
// the response is byte-identical to a memo-less cold run of the same
// request — the invariant the whole design rests on.
func incAnalyze(t *testing.T, inc *Incremental, src string) (*AnalyzeResponse, *IncrementalInfo) {
	t.Helper()
	req := &AnalyzeRequest{Module: "inc.mc", Source: src,
		Options: AnalyzeOptions{Mode: ModeQual}}
	resp, info := inc.Analyze(context.Background(), req, 0)
	if info == nil {
		t.Fatal("incremental engine returned no info for a plain source request")
	}
	got, err := resp.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	cold := Analyze(context.Background(), &AnalyzeRequest{Module: "inc.mc", Source: src,
		Options: AnalyzeOptions{Mode: ModeQual}})
	want, err := cold.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("incremental response differs from a cold run:\n--- incremental\n%s\n--- cold\n%s", got, want)
	}
	return resp, info
}

// TestIncrementalDispositions drives the engine through its three
// states: first sighting (cold), identical resubmission (full replay),
// and a one-function edit (partial — the untouched functions replay).
func TestIncrementalDispositions(t *testing.T) {
	inc := NewIncremental(solve.NewMemo(1024))

	_, info := incAnalyze(t, inc, incBase)
	// A first sighting must solve fresh work — but qual mode runs two
	// solves (baseline + confine), and components unchanged by confine
	// planting replay within the same request, so the disposition can
	// already be "partial" on a cold module. It must not be "full".
	if info.Solved == 0 || info.Disposition == IncrementalFull {
		t.Fatalf("first sighting: %+v, want fresh solves", info)
	}

	_, info = incAnalyze(t, inc, incBase)
	if info.Disposition != IncrementalFull || info.Solved != 0 || info.Replayed == 0 {
		t.Fatalf("identical resubmission: %+v, want full replay", info)
	}

	// The edit must change beta's constraint system, not just its
	// tokens — a pure arithmetic tweak (say *b + 1) would replay fully,
	// since the memo is addressed by constraint content. A new ref
	// binding and dereference does it.
	edited := strings.Replace(incBase, "return *b;", "let d = b;\n        return *d;", 1)
	_, info = incAnalyze(t, inc, edited)
	if info.Disposition != IncrementalPartial {
		t.Fatalf("one-function edit: %+v, want partial (replayed>0 and solved>0)", info)
	}
}

// TestIncrementalCommentEditFullReplay pins the trivia rule end to
// end: a comment/whitespace-only edit changes the cache key (different
// bytes) but re-solves nothing — every component replays.
func TestIncrementalCommentEditFullReplay(t *testing.T) {
	inc := NewIncremental(solve.NewMemo(1024))
	incAnalyze(t, inc, incBase)

	edited := "// a new header comment\n/* shifting\n   every span */\n" + incBase
	_, info := incAnalyze(t, inc, edited)
	if info.Disposition != IncrementalFull || info.Solved != 0 {
		t.Fatalf("trivia edit: %+v, want full replay with zero fresh solves", info)
	}
}

// TestIncrementalMemoEvictionFallsBackCold: a memo too small to hold
// the module's components keeps evicting, so a resubmission finds
// nothing to replay — and still produces byte-identical results (the
// incAnalyze helper checks that each time).
func TestIncrementalMemoEvictionFallsBackCold(t *testing.T) {
	inc := NewIncremental(solve.NewMemo(1))
	incAnalyze(t, inc, incBase)
	_, info := incAnalyze(t, inc, incBase)
	if info.Solved == 0 {
		t.Fatalf("capacity-1 memo on resubmission: %+v, want fresh solves after eviction churn", info)
	}
	if st := inc.Memo().Stats(); st.Evictions == 0 || st.Entries > 1 {
		t.Fatalf("memo stats = %+v, want evictions and at most one resident entry", st)
	}
}

// TestIncrementalGenerateBypass: requests synthesizing their source
// inside the fault guard bypass the incremental machinery (nil info)
// and still analyze fine.
func TestIncrementalGenerateBypass(t *testing.T) {
	inc := NewIncremental(solve.NewMemo(1024))
	req := &AnalyzeRequest{Module: "gen.mc",
		Options:  AnalyzeOptions{Mode: ModeQual},
		Generate: func(ctx context.Context) string { return incBase }}
	resp, info := inc.Analyze(context.Background(), req, time.Minute)
	if info != nil {
		t.Fatalf("generated request produced incremental info: %+v", info)
	}
	if resp.Failure != nil || !resp.OK {
		t.Fatalf("generated request failed: %+v", resp.Failure)
	}
}
