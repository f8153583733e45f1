package experiments

import (
	"fmt"
	"strings"

	"localalias/internal/core"
	"localalias/internal/drivergen"
	"localalias/internal/modgraph"
)

// This file runs the cross-module experiment: the multi-module driver
// stacks (drivergen.XStack) analyzed twice over the import DAG — once
// with every imported call havoc'd (the paper's per-module setting)
// and once with package summaries applied — and reports the precision
// gap per mode column. The EXPERIMENTS.md "Cross-module" table is
// this result.

// xmoduleLeaves is the stack size the experiment and its table use.
const xmoduleLeaves = 12

// XmoduleModuleRow is one module's measurement in both settings.
type XmoduleModuleRow struct {
	Name           string
	Havoc, Summary drivergen.Triple
	// ExpHavoc/ExpSummary are the generator's calibrated
	// expectations; Mismatch marks a measured/expected disagreement.
	ExpHavoc, ExpSummary drivergen.Triple
	Mismatch             bool
}

// XmoduleResult is the outcome of the cross-module experiment.
type XmoduleResult struct {
	Rows []XmoduleModuleRow
	// HavocTotal/SummaryTotal aggregate the three mode columns.
	HavocTotal, SummaryTotal drivergen.Triple
	// Mismatches counts modules whose measured triples disagree with
	// the generator's expectations in either setting.
	Mismatches int
	// Failures lists modules that failed to analyze (expected none).
	Failures []string
}

// SummaryWinsEveryColumn reports the experiment's acceptance
// property: the summary pass eliminates strictly more errors than
// havoc in every mode column.
func (r *XmoduleResult) SummaryWinsEveryColumn() bool {
	return r.SummaryTotal.NoConfine < r.HavocTotal.NoConfine &&
		r.SummaryTotal.Confine < r.HavocTotal.Confine &&
		r.SummaryTotal.AllStrong < r.HavocTotal.AllStrong
}

func outcomeTriple(o *modgraph.Outcome) drivergen.Triple {
	return drivergen.Triple{
		NoConfine: o.Errors(core.VariantNoConfine),
		Confine:   o.Errors(core.VariantWithConfine),
		AllStrong: o.Errors(core.VariantAllStrong),
	}
}

// RunXmoduleCorpus analyzes the multi-module stack in both settings
// and checks every module against the generator's expectations.
func RunXmoduleCorpus() *XmoduleResult {
	mods := drivergen.XStack(xmoduleLeaves)
	var srcs []modgraph.Source
	for _, m := range mods {
		srcs = append(srcs, modgraph.Source{Name: m.Name, Text: m.Source})
	}
	havoc := modgraph.Analyze(srcs, modgraph.Options{Havoc: true})
	summary := modgraph.Analyze(srcs, modgraph.Options{})

	res := &XmoduleResult{}
	seen := map[string]bool{}
	for _, x := range []*modgraph.Result{havoc, summary} {
		for _, f := range x.Failures() {
			if !seen[f] {
				seen[f] = true
				res.Failures = append(res.Failures, f)
			}
		}
	}
	for _, m := range mods {
		hm, sm := havoc.Modules[m.Name], summary.Modules[m.Name]
		if hm == nil || hm.Outcome == nil || sm == nil || sm.Outcome == nil {
			continue
		}
		row := XmoduleModuleRow{
			Name:       m.Name,
			Havoc:      outcomeTriple(hm.Outcome),
			Summary:    outcomeTriple(sm.Outcome),
			ExpHavoc:   m.ExpHavoc,
			ExpSummary: m.ExpSummary,
		}
		row.Mismatch = row.Havoc != row.ExpHavoc || row.Summary != row.ExpSummary
		if row.Mismatch {
			res.Mismatches++
		}
		res.Rows = append(res.Rows, row)
		res.HavocTotal = addT(res.HavocTotal, row.Havoc)
		res.SummaryTotal = addT(res.SummaryTotal, row.Summary)
	}
	return res
}

func addT(a, b drivergen.Triple) drivergen.Triple {
	return drivergen.Triple{
		NoConfine: a.NoConfine + b.NoConfine,
		Confine:   a.Confine + b.Confine,
		AllStrong: a.AllStrong + b.AllStrong,
	}
}

// Table renders the cross-module precision comparison in the style of
// the EXPERIMENTS.md tables.
func (r *XmoduleResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cross-module precision: per-module havoc vs package summaries\n")
	fmt.Fprintf(&b, "(multi-module stack: %d modules; errors per mode column)\n\n", len(r.Rows))
	fmt.Fprintf(&b, "%-10s  %-17s  %-17s\n", "module", "havoc (nc/ci/as)", "summary (nc/ci/as)")
	for _, row := range r.Rows {
		mark := ""
		if row.Mismatch {
			mark = "  MISMATCH"
		}
		fmt.Fprintf(&b, "%-10s  %3d %3d %3d        %3d %3d %3d  %s\n",
			row.Name,
			row.Havoc.NoConfine, row.Havoc.Confine, row.Havoc.AllStrong,
			row.Summary.NoConfine, row.Summary.Confine, row.Summary.AllStrong, mark)
	}
	fmt.Fprintf(&b, "%-10s  %3d %3d %3d        %3d %3d %3d\n", "TOTAL",
		r.HavocTotal.NoConfine, r.HavocTotal.Confine, r.HavocTotal.AllStrong,
		r.SummaryTotal.NoConfine, r.SummaryTotal.Confine, r.SummaryTotal.AllStrong)
	if r.SummaryWinsEveryColumn() {
		fmt.Fprintf(&b, "\nsummary eliminates strictly more errors than havoc in every column\n")
	} else {
		fmt.Fprintf(&b, "\nWARNING: summary does not win every column\n")
	}
	return b.String()
}
