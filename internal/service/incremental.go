package service

import (
	"context"
	"time"

	"localalias/internal/obs"
	"localalias/internal/solve"
)

// The incremental dispositions reported in the X-Lna-Incremental
// header and counted by lna_incremental_requests_total.
const (
	// IncrementalCold: no solve component was replayed from a summary
	// — the first sighting of this module (or of its every component).
	IncrementalCold = "cold"
	// IncrementalPartial: some components replayed, some solved fresh
	// — the steady state after an edit. A first sighting can also land
	// here in the multi-solve modes (confine/qual run a baseline solve
	// and a confine solve): components the confine planting leaves
	// unchanged replay within the same request.
	IncrementalPartial = "partial"
	// IncrementalFull: every component replayed; nothing was solved
	// from scratch (a resubmission, or an edit invisible to the
	// constraint systems).
	IncrementalFull = "full"
)

// IncrementalInfo describes how much of a request's analysis was
// reused from prior runs. It is engine-run metadata — surfaced in the
// X-Lna-Incremental header and the access log, never in the canonical
// response body (which stays byte-identical to a cold run).
type IncrementalInfo struct {
	// Disposition is cold|partial|full (see the constants).
	Disposition string
	// Replayed and Solved count solve components reused from summaries
	// vs computed fresh, over every solve the request performed.
	Replayed int64
	Solved   int64
}

// Incremental is the summary-based re-analysis engine: a process-wide
// solve memo of content-addressed component summaries. Analyze wraps
// AnalyzeBounded so that re-analyzing an edited module re-solves only
// the constraint components the edit actually changed — everything
// else replays from its summary, byte-identical to a fresh cold run.
// Correctness rides entirely on the memo's content addressing: a
// component replays only when its fingerprint (structure, symbols,
// ranks) matches exactly.
type Incremental struct {
	memo *solve.Memo
}

// NewIncremental builds an engine over the given memo (nil builds one
// with solve.DefaultMemoEntries).
func NewIncremental(memo *solve.Memo) *Incremental {
	if memo == nil {
		memo = solve.NewMemo(DefaultMemoEntries())
	}
	return &Incremental{memo: memo}
}

// DefaultMemoEntries re-exports the solve package's default so `lna
// serve` flag defaults live in one place.
func DefaultMemoEntries() int { return solve.DefaultMemoEntries }

// Memo exposes the underlying solve memo (for stats endpoints).
func (inc *Incremental) Memo() *solve.Memo { return inc.memo }

// Analyze runs one request through AnalyzeBounded with the engine's
// memo injected and reports the reuse disposition. The response is
// byte-identical to what a memo-less run would produce (pinned by the
// differential tests); only the work performed differs.
func (inc *Incremental) Analyze(ctx context.Context, req *AnalyzeRequest, timeout time.Duration) (*AnalyzeResponse, *IncrementalInfo) {
	// Generated sources (the corpus drivers' seam) bypass the engine
	// and report no disposition.
	if req.Generate != nil {
		return AnalyzeBounded(ctx, req, timeout), nil
	}

	counters := req.MemoCounters
	if counters == nil {
		counters = &solve.MemoCounters{}
	}
	run := *req // shallow copy: the caller's request is not mutated
	run.Memo = inc.memo
	run.MemoCounters = counters
	resp := AnalyzeBounded(ctx, &run, timeout)

	info := &IncrementalInfo{
		Replayed: counters.Replayed.Load(),
		Solved:   counters.Solved.Load(),
	}
	switch {
	case info.Replayed == 0:
		info.Disposition = IncrementalCold
	case info.Solved == 0:
		info.Disposition = IncrementalFull
	default:
		info.Disposition = IncrementalPartial
	}
	obs.App().Incremental(info.Disposition).Inc()
	return resp, info
}
