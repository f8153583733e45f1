// Package modgraph links separately-parsed MiniC modules into a whole
// program. It builds the module dependency DAG from import
// declarations, condenses it (cycle members are rejected with
// positioned diagnostics, Go-style), and runs a bottom-up pass over
// the condensation on the calling goroutine: each module is analyzed
// after its dependencies, receiving their package summaries — exported
// signatures, qualifier transfer tables per experiment variant, and
// per-formal effect masks — so call sites into imported functions
// apply the callee's actual behavior instead of worst-case havoc.
//
// Failure containment mirrors the corpus driver's: a module that
// fails to parse, type check, or analyze is recorded and skipped, and
// its importers still run — resolving the failed package's surface
// from its parse tree and havocing calls into it. The same fallback
// covers import cycles, so one bad package degrades precision
// downstream instead of failing the program.
package modgraph

import (
	"context"
	"fmt"
	"sort"

	"localalias/internal/ast"
	"localalias/internal/core"
	"localalias/internal/faults"
	"localalias/internal/parser"
	"localalias/internal/solve"
	"localalias/internal/source"
)

// Source is one named module's text. The name is the package name
// importers use: `import "name";`.
type Source struct {
	Name string
	Text string
}

// Options configures the whole-program pass.
type Options struct {
	// Havoc disables summary application: imported calls degrade to
	// worst-case effects, reproducing per-module analysis in
	// isolation. The differential baseline for the summary pass.
	Havoc bool
	// General/NoParams/NoLets forward the per-module experiment
	// switches (see core.LockingOptions).
	General  bool
	NoParams bool
	NoLets   bool
	// Memo, when non-nil, lets per-module solves replay
	// content-addressed component summaries.
	Memo *solve.Memo
	// MemoCounters, when non-nil, receives the component reuse
	// accounting (replayed vs freshly solved) summed over every
	// module's solves.
	MemoCounters *solve.MemoCounters
}

// Finding is one rendered analysis error.
type Finding struct {
	Pos string `json:"pos"`
	Msg string `json:"msg"`
}

// ModeOutcome is one experiment column's findings.
type ModeOutcome struct {
	Errors []Finding `json:"errors"`
}

// Outcome is the distilled analysis outcome of one module: the
// Section 7 locking report with rendered positions, indexed by
// core.Variant*.
type Outcome struct {
	Sites   int                           `json:"sites"`
	Planted int                           `json:"planted"`
	Kept    int                           `json:"kept"`
	Modes   [core.NumVariants]ModeOutcome `json:"modes"`
}

// Errors returns the error count of one variant column.
func (o *Outcome) Errors(v int) int { return len(o.Modes[v].Errors) }

// ModuleResult is one module's outcome within the program.
type ModuleResult struct {
	Name string
	// Deps are the declared import paths, sorted and deduplicated.
	Deps []string
	// Module carries the loaded AST and diagnostics.
	Module *core.Module
	// Locking is the full per-module result (nil on failure).
	Locking *core.LockingResult
	// Outcome is the distilled report (nil when the module failed).
	Outcome *Outcome
	// API is the package summary published to importers (nil on
	// failure or in havoc mode).
	API *core.PackageAPI
	// Err is the load or analysis failure, if any.
	Err error
	// Cyclic marks members of an import cycle.
	Cyclic bool
}

// Failed reports whether the module produced no outcome.
func (m *ModuleResult) Failed() bool { return m.Err != nil }

// Result is the whole-program outcome.
type Result struct {
	// Modules holds every input module's result, keyed by name.
	Modules map[string]*ModuleResult
	// Order is the deterministic bottom-up schedule (topological,
	// lexicographic tie-break); cycle members are excluded.
	Order []string
	// Cycles lists each detected import cycle in path order.
	Cycles [][]string
}

// Errors sums one variant column over all analyzed modules.
func (r *Result) Errors(v int) int {
	n := 0
	for _, m := range r.Modules {
		if m.Outcome != nil {
			n += m.Outcome.Errors(v)
		}
	}
	return n
}

// Failures returns the names of failed modules, sorted.
func (r *Result) Failures() []string {
	var out []string
	for name, m := range r.Modules {
		if m.Failed() {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// parsed is the pre-analysis view of one module.
type parsed struct {
	src   Source
	prog  *ast.Program
	diags *source.Diagnostics
	deps  []string // sorted, deduplicated declared imports
}

// Analyze links and analyzes a multi-module program bottom-up over
// its import DAG. Duplicate module names are an error on the later
// occurrence.
func Analyze(sources []Source, opts Options) *Result {
	return AnalyzeCtx(context.TODO(), sources, opts, nil)
}

// AnalyzeCtx is Analyze under a request's fault-containment plumbing:
// ctx bounds every module's constraint solves and carries the
// request's trace (each module gets a "module:NAME" span, category
// "modgraph", under the span ctx names), and tr (when non-nil)
// records which phase is executing. Modules run one after another on
// the calling goroutine, so a deadline abort or panic reaches the
// caller's faults guard attributed to that phase.
func AnalyzeCtx(ctx context.Context, sources []Source, opts Options, tr *faults.Trace) *Result {
	res := &Result{Modules: make(map[string]*ModuleResult)}

	// Parse everything once to extract the import graph. The analysis
	// phase re-loads through core (parse is cheap and keeps the
	// fault-contained pipeline intact).
	count := make(map[string]int)
	for _, s := range sources {
		count[s.Name]++
	}
	mods := make(map[string]*parsed)
	var names []string
	for _, s := range sources {
		if count[s.Name] > 1 {
			// Ambiguous: all occurrences of the name fail (there is
			// no principled way to pick one for importers).
			res.Modules[s.Name] = &ModuleResult{
				Name: s.Name,
				Err:  fmt.Errorf("%s: duplicate module name", s.Name),
			}
			continue
		}
		diags := &source.Diagnostics{}
		prog := parser.Parse(s.Name, s.Text, diags)
		seen := map[string]bool{}
		var deps []string
		for _, im := range prog.Imports {
			if !seen[im.Path] {
				seen[im.Path] = true
				deps = append(deps, im.Path)
			}
		}
		sort.Strings(deps)
		mods[s.Name] = &parsed{src: s, prog: prog, diags: diags, deps: deps}
		names = append(names, s.Name)
	}
	sort.Strings(names)

	// Condense: reject cycle members with positioned diagnostics.
	cyclic := findCycles(mods, names, res)

	// Deterministic bottom-up order over the acyclic remainder.
	res.Order = topoOrder(mods, names, cyclic)

	run := &runner{mods: mods, cyclic: cyclic, opts: opts, res: res}
	for _, name := range res.Order {
		run.analyze(ctx, tr, name)
	}
	return res
}

// findCycles detects import cycles (including self-imports), records
// a positioned diagnostic and a failed ModuleResult for each member,
// and returns the member set.
func findCycles(mods map[string]*parsed, names []string, res *Result) map[string]bool {
	cyclic := make(map[string]bool)
	// Iterative DFS with an explicit path for cycle reporting.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[string]int)
	var path []string
	var visit func(string)
	visit = func(n string) {
		color[n] = grey
		path = append(path, n)
		for _, d := range mods[n].deps {
			if mods[d] == nil {
				continue // missing package: reported by typecheck
			}
			switch color[d] {
			case white:
				visit(d)
			case grey:
				// Found a back edge: the cycle is path[i..] for the
				// first i with path[i] == d.
				i := 0
				for path[i] != d {
					i++
				}
				cycle := append(append([]string{}, path[i:]...), d)
				res.Cycles = append(res.Cycles, cycle)
				for _, m := range path[i:] {
					cyclic[m] = true
				}
			}
		}
		path = path[:len(path)-1]
		color[n] = black
	}
	for _, n := range names {
		if color[n] == white {
			visit(n)
		}
	}
	// A member of any cycle fails with a diagnostic at the import
	// declaration that participates in the cycle.
	for _, cycle := range res.Cycles {
		inCycle := make(map[string]bool, len(cycle))
		for _, m := range cycle {
			inCycle[m] = true
		}
		for _, m := range cycle[:len(cycle)-1] {
			p := mods[m]
			for _, im := range p.prog.Imports {
				if inCycle[im.Path] {
					p.diags.Errorf(p.prog.File, im.Sp, "modgraph",
						"import cycle: %s", cycleString(cycle, m))
					break
				}
			}
		}
	}
	for _, n := range names {
		if cyclic[n] {
			p := mods[n]
			res.Modules[n] = &ModuleResult{
				Name:   n,
				Deps:   p.deps,
				Cyclic: true,
				Module: &core.Module{Name: n, Prog: p.prog, Diags: p.diags},
				Err:    fmt.Errorf("%s: import cycle", n),
			}
		}
	}
	return cyclic
}

// cycleString renders a cycle starting from member m: "a -> b -> a".
func cycleString(cycle []string, m string) string {
	// cycle is closed (first == last); rotate so m leads.
	ring := cycle[:len(cycle)-1]
	start := 0
	for i, n := range ring {
		if n == m {
			start = i
			break
		}
	}
	s := ""
	for i := 0; i <= len(ring); i++ {
		if i > 0 {
			s += " -> "
		}
		s += ring[(start+i)%len(ring)]
	}
	return s
}

// topoOrder returns a deterministic bottom-up order (Kahn's algorithm
// with a sorted frontier) over the non-cyclic modules.
func topoOrder(mods map[string]*parsed, names []string, cyclic map[string]bool) []string {
	pending := make(map[string]int)
	dependents := make(map[string][]string)
	for _, n := range names {
		if cyclic[n] {
			continue
		}
		cnt := 0
		for _, d := range mods[n].deps {
			if mods[d] != nil && !cyclic[d] {
				cnt++
				dependents[d] = append(dependents[d], n)
			}
		}
		pending[n] = cnt
	}
	var frontier []string
	for _, n := range names {
		if !cyclic[n] && pending[n] == 0 {
			frontier = append(frontier, n)
		}
	}
	sort.Strings(frontier)
	var order []string
	for len(frontier) > 0 {
		n := frontier[0]
		frontier = frontier[1:]
		order = append(order, n)
		next := dependents[n]
		sort.Strings(next)
		for _, d := range next {
			pending[d]--
			if pending[d] == 0 {
				frontier = append(frontier, d)
				sort.Strings(frontier)
			}
		}
	}
	return order
}
