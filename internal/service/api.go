// Package service is the stable public contract of the local
// non-aliasing toolkit: one request/response shape shared by the lna
// command line, the batch experiment driver, and the long-running
// `lna serve` daemon.
//
// The contract has three layers:
//
//   - AnalyzeRequest / AnalyzeResponse: the canonical wire types. A
//     request names a module, carries its source text, and selects an
//     analysis mode (check / infer / confine / qual); the response
//     carries positioned diagnostics, per-mode reports, solver work
//     counters, and — when the module's analysis panicked or timed
//     out — a structured failure record instead of a dropped
//     connection. The same struct is emitted by `lna check -json`
//     and returned by the daemon's /v1/analyze endpoint, byte for
//     byte.
//   - Analyze / AnalyzeBounded: the engine. Every front end funnels
//     through it, so fault containment (package faults), deadline
//     handling, and diagnostics shaping are implemented exactly once.
//   - Server: the resident HTTP daemon, adding a worker pool, an LRU
//     result cache keyed by the SHA-256 of module source + options,
//     request batching, bounded-queue backpressure, and graceful
//     drain.
//
// The JSON rendering of an AnalyzeResponse is deterministic for a
// healthy module: field order is fixed, no maps are serialized, and
// wall-clock timings are deliberately kept out of the wire shape (they
// travel in the process-local Elapsed/PhaseTimings fields instead).
// This is what makes content-hash caching sound: a cache hit replays
// the cold run's bytes exactly.
package service

import (
	"context"
	"encoding/json"
	"time"

	"localalias/internal/faults"
	"localalias/internal/obs"
	"localalias/internal/solve"
	"localalias/internal/source"
)

// APIVersion names the wire contract. It participates in the cache
// key, so bumping it invalidates every cached result.
const APIVersion = "v1"

// The analysis modes, mirroring the lna subcommands.
const (
	// ModeCheck verifies explicit restrict/confine annotations
	// (Sections 4 and 6.1).
	ModeCheck = "check"
	// ModeInfer runs restrict inference (Section 5) and returns the
	// annotated program.
	ModeInfer = "infer"
	// ModeConfine runs confine inference (Sections 6–7) and returns
	// the transformed program plus the three-mode locking report.
	ModeConfine = "confine"
	// ModeQual runs the three-mode locking experiment (Section 7).
	ModeQual = "qual"
)

// ValidMode reports whether m names an analysis mode ("" selects
// ModeQual).
func ValidMode(m string) bool {
	switch m {
	case "", ModeCheck, ModeInfer, ModeConfine, ModeQual:
		return true
	}
	return false
}

// AnalyzeOptions selects the analysis mode and its knobs. The zero
// value means "qual with the paper's defaults".
type AnalyzeOptions struct {
	// Mode is one of check|infer|confine|qual ("" = qual).
	Mode string `json:"mode"`
	// General selects the exhaustive confine scope search instead of
	// the paper's syntactic heuristic (confine/qual modes).
	General bool `json:"general,omitempty"`
	// Params also infers restrict on ref-typed parameters (infer mode).
	Params bool `json:"params,omitempty"`
	// Liberal checks with the liberal §5 restrict-effect semantics
	// (check mode).
	Liberal bool `json:"liberal,omitempty"`
	// MultiModule links Libraries and the request module into a
	// whole program over the import DAG and applies cross-module
	// package summaries at imported call sites (confine/qual modes
	// only). Off, imported calls in the module fail to resolve.
	MultiModule bool `json:"multi_module,omitempty"`
	// Libraries are the other modules of a multi-module program,
	// analyzed bottom-up before the request module. They are analysis
	// input like Source, so they live in the options and participate
	// in the cache key canonically.
	Libraries []LibrarySource `json:"libraries,omitempty"`
}

// LibrarySource is one library module of a multi-module request. Name
// is the package name importers use in `import "name";`.
type LibrarySource struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

// AnalyzeRequest is one module submitted for analysis.
type AnalyzeRequest struct {
	// APIVersion names the wire contract the client speaks ("" means
	// the current version, APIVersion). Servers reject any other value
	// with a structured unsupported_api_version error instead of
	// silently analyzing under assumptions the client did not make.
	APIVersion string `json:"api_version,omitempty"`
	// Module is the display name used in diagnostics ("" defaults to
	// "module.mc").
	Module string `json:"module"`
	// Source is the module's full source text.
	Source string `json:"source"`
	// Options selects the analysis.
	Options AnalyzeOptions `json:"options"`

	// Generate, when non-nil, synthesizes the module source inside the
	// fault guard (attributed to the generate phase) instead of using
	// Source — the seam corpus drivers use so a generator panic is
	// contained like any other module fault. Never serialized, and
	// requests carrying it are not cacheable by content hash.
	Generate func(ctx context.Context) string `json:"-"`

	// Obs, when non-nil, collects the request's spans (one per
	// pipeline phase plus an enclosing request span) under a unique
	// trace ID. Never serialized and deliberately outside the cache
	// key: tracing a request does not change its canonical bytes.
	// nil — the default — disables tracing at zero cost.
	Obs *obs.Trace `json:"-"`

	// Memo, when non-nil, lets every solve of this request reuse (and
	// record) content-addressed component summaries — the incremental
	// engine's substrate. It is an execution knob outside the cache
	// key: replaying a summary is byte-identical to
	// solving fresh, so a response computed with any memo state is a
	// valid hit for any other. The daemon injects its process-wide
	// memo here.
	Memo *solve.Memo `json:"-"`

	// MemoCounters, when non-nil, receives this request's component
	// reuse accounting (replayed vs freshly solved) — an output the
	// incremental engine turns into the X-Lna-Incremental disposition,
	// never an analysis input.
	MemoCounters *solve.MemoCounters `json:"-"`
}

// Diagnostic is one positioned message in wire form.
type Diagnostic struct {
	// Pos is the resolved "file:line:col" location ("" when the
	// diagnostic has no position).
	Pos string `json:"pos"`
	// Severity is "note", "warning", or "error".
	Severity string `json:"severity"`
	// Phase names the producing analysis, e.g. "parse", "types",
	// "restrict", "qual".
	Phase   string `json:"phase,omitempty"`
	Message string `json:"message"`
}

// Diagnostics is the unified result shape every analysis produces:
// positioned diagnostics, the count of internal-error diagnostics
// (pipeline inconsistencies contained as per-module diagnostics, see
// PRs 1–2), and the constraint-solver work counters.
type Diagnostics struct {
	Diags []Diagnostic `json:"diags"`
	// InternalErrors counts the diagnostics reporting contained
	// pipeline inconsistencies (unification mismatches, malformed
	// effect constraints) rather than user-facing findings.
	InternalErrors int `json:"internal_errors"`
	// Stats aggregates the solver work counters over every solve the
	// request performed. They are deterministic per module, so they
	// cache and replay byte-identically.
	Stats solve.Stats `json:"solver_stats"`
}

// NewDiagnostics converts accumulated pipeline diagnostics plus solver
// stats into the wire shape. A nil ds yields an empty (but non-null)
// diagnostic list.
func NewDiagnostics(ds *source.Diagnostics, stats solve.Stats) Diagnostics {
	out := Diagnostics{Diags: []Diagnostic{}, Stats: stats}
	if ds == nil {
		return out
	}
	for _, d := range ds.List {
		pos := ""
		if d.File != nil && d.Span.IsValid() {
			pos = d.File.Position(d.Span.Start).String()
		}
		out.Diags = append(out.Diags, Diagnostic{
			Pos:      pos,
			Severity: d.Severity.String(),
			Phase:    d.Phase,
			Message:  d.Message,
		})
		if d.Severity == source.Error && isInternal(d.Message) {
			out.InternalErrors++
		}
	}
	return out
}

// isInternal reports whether a diagnostic message records a contained
// pipeline inconsistency rather than a user-facing finding.
func isInternal(msg string) bool {
	const p = "internal error"
	return len(msg) >= len(p) && msg[:len(p)] == p
}

// ErrorCount returns the number of error-severity diagnostics.
func (d *Diagnostics) ErrorCount() int {
	n := 0
	for _, x := range d.Diags {
		if x.Severity == "error" {
			n++
		}
	}
	return n
}

// ModeReport is the per-mode outcome of the locking analysis.
type ModeReport struct {
	NumErrors int          `json:"num_errors"`
	Errors    []Diagnostic `json:"errors"`
}

// LockingReport is the three-mode Section 7 report for one module.
type LockingReport struct {
	// Sites is the number of syntactic lock-op sites.
	Sites int `json:"sites"`
	// Planted/Kept count confine? candidates inserted and retained.
	Planted int `json:"planted"`
	Kept    int `json:"kept"`
	// Potential is noConfine − allStrong; Eliminated is noConfine −
	// withConfine (the paper's headline numbers).
	Potential  int `json:"potential"`
	Eliminated int `json:"eliminated"`

	NoConfine   ModeReport `json:"no_confine"`
	WithConfine ModeReport `json:"confine_inference"`
	AllStrong   ModeReport `json:"all_strong"`
}

// CheckReport is the outcome of annotation checking.
type CheckReport struct {
	OK bool `json:"ok"`
	// UsedFigure5 reports whether the O(kn) marked-search fast path
	// was exercised.
	UsedFigure5 bool `json:"used_figure5"`
}

// InferReport is the outcome of restrict inference.
type InferReport struct {
	Candidates int `json:"candidates"`
	Restricted int `json:"restricted"`
	// Marked lists the promoted candidates as "kind name".
	Marked []string `json:"marked,omitempty"`
	// Rejected lists the first rejection reason per kept-as-let
	// candidate.
	Rejected []string `json:"rejected,omitempty"`
}

// AnalyzeResponse is the canonical result of analyzing one module.
// `lna check -json` and the daemon's /v1/analyze endpoint emit exactly
// this shape.
type AnalyzeResponse struct {
	APIVersion string `json:"api_version"`
	Module     string `json:"module"`
	Mode       string `json:"mode"`
	// OK is true when the analysis completed without findings and
	// without a contained failure.
	OK bool `json:"ok"`
	// Findings counts user-facing errors: error-severity diagnostics
	// plus, in confine/qual modes, the remaining type errors under
	// confine inference.
	Findings int `json:"findings"`

	Diagnostics Diagnostics `json:"diagnostics"`

	// Exactly one of the mode reports is set on success (Locking for
	// both confine and qual).
	Check   *CheckReport   `json:"check,omitempty"`
	Infer   *InferReport   `json:"infer,omitempty"`
	Locking *LockingReport `json:"locking,omitempty"`

	// Program is the annotated (infer) or transformed (confine)
	// program rendered in canonical form.
	Program string `json:"program,omitempty"`

	// Failure is the structured record when the module's analysis
	// panicked, timed out, or failed inside the containment guard —
	// the request degrades to a report, never to a crash.
	Failure *faults.ModuleFailure `json:"failure,omitempty"`

	// Process-local run information — deliberately NOT part of the
	// wire contract, so response bytes stay deterministic and
	// cacheable.
	Elapsed time.Duration `json:"-"`
	// Xmodule summarizes a multi-module request's whole-program pass
	// ("modules=N;analyzed=A;failed=F"); the daemon surfaces it as
	// the X-Lna-Xmodule response header. Empty for single-module
	// requests. Process-local: header metadata, not wire body.
	Xmodule      string               `json:"-"`
	PhaseTimings []faults.PhaseTiming `json:"-"`
	// Raw is the in-process diagnostics accumulator, kept so command
	// line front ends can render source excerpts the wire shape does
	// not carry. Nil after a timeout (the abandoned goroutine may
	// still own it).
	Raw *source.Diagnostics `json:"-"`
}

// MarshalCanonical renders the response in the canonical wire form:
// two-space indented JSON with a trailing newline. Every producer of
// the contract (CLI -json, daemon, cache) uses this one renderer, so
// equal responses are equal bytes.
func (r *AnalyzeResponse) MarshalCanonical() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
