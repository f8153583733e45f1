package solve

import (
	"localalias/internal/effects"
	"localalias/internal/locs"
)

// This file partitions a propagation graph into its connected
// components, the memo's unit of reuse (see memo.go). The partition
// must guarantee one property: no event in one component can
// influence any event in another. Then a component's solo execution
// is literally the subsequence of the whole-graph solver's execution
// touching that component, and every observable — solution sets,
// violations, per-group firing order, work counters — comes out
// identical whether a component is solved alone, replayed from a
// summary, or solved with the rest of the graph (see
// docs/ALGORITHMS.md, "Component-partitioned solving").
//
// Two structures carry influence between variables:
//
//   - Constraint edges. Every normal-form constraint moves atoms
//     among its participant variables, and every conditional's
//     actions write to its action variables when its trigger
//     (observing its trigger variables) becomes true. Union those
//     participant sets.
//
//   - Location unification. A fired ActUnify merges location classes,
//     which changes Find — and Find feeds gate comparisons, trigger
//     predicates, and atom canonicalization everywhere the merged
//     classes are mentioned. Locations don't belong to components, so
//     this is the subtle channel: two otherwise-disconnected
//     variables both holding atoms over a class that some conditional
//     may unify would observe each other's merge timing.
//
// The second channel is closed by a location-level pre-pass: build
// the coarsest location partition that solve-time unification could
// ever produce (union the operand classes of every ActUnify, fired or
// not — an overapproximation of what actually fires), mark the
// classes containing ActUnify operands volatile, and merge the
// variable components of everything that mentions a volatile class.
// Atoms over non-volatile classes have stable Find results for the
// whole solve, so cross-component mentions of them are harmless.
// Checks (NotIn/KindNotIn/PairNotIn) read the finished solution after
// every component is drained and never merge anything.

// partition is the component decomposition of one graph. Component
// IDs are dense, assigned in order of each component's first variable;
// vars/inodes/conds are CSR membership lists (ascending variable and
// inode order, creation-order conditionals).
type partition struct {
	ncomp  int
	compOf []int32 // variable → component

	varStart   []int32
	vars       []int32
	inodeStart []int32
	inodes     []int32
	condStart  []int32
	conds      []int32 // indices into sys.Conds
}

// unionFind is a plain union-find over dense int32 indices. Union
// keeps the smaller root so representative choice is deterministic
// (not that correctness needs it — component IDs are renumbered by
// first member anyway).
type unionFind struct {
	parent []int32
}

func newUnionFind(n int) unionFind {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	return unionFind{parent: p}
}

func (u unionFind) find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u unionFind) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	switch {
	case ra == rb:
	case ra < rb:
		u.parent[rb] = ra
	default:
		u.parent[ra] = rb
	}
}

// eachCondVar visits every effect variable a conditional can read or
// write: its trigger's variables plus its actions' operands.
func eachCondVar(c *effects.Cond, f func(v effects.Var)) {
	forTriggerVars(c.Trigger, f)
	for _, act := range c.Actions {
		switch act := act.(type) {
		case effects.ActIncl:
			f(act.From)
			f(act.To)
		case effects.ActAddAtom:
			f(act.V)
		}
	}
}

// newPartition computes the component decomposition of g. A result
// with compOf == nil means the partitioner bailed — the graph is
// empty or contains a construct it doesn't understand (a conditional
// touching no variable); solving then falls back to the sequential
// path, which is always correct. When compOf is set the CSR
// membership lists are populated even for ncomp == 1, so the memoized
// solver can fingerprint a whole-module component.
func newPartition(g *graph) *partition {
	nvar := g.nvar
	sys := g.sys
	if nvar == 0 {
		return &partition{ncomp: 1}
	}
	uf := newUnionFind(nvar)

	// Constraint edges: each normal form's variables become one group.
	for i := range g.norms {
		n := &g.norms[i]
		if !n.Left.IsAtom {
			uf.union(int32(n.Left.V), int32(n.V))
		}
		if n.Inter && !n.Right.IsAtom {
			uf.union(int32(n.Right.V), int32(n.V))
		}
	}

	// Conditionals: trigger and action variables become one group,
	// anchored at the first (a trigger variable for every known
	// trigger type).
	anchors := make([]int32, len(sys.Conds))
	for ci, c := range sys.Conds {
		anchor := int32(-1)
		eachCondVar(c, func(v effects.Var) {
			if anchor < 0 {
				anchor = int32(v)
			} else {
				uf.union(anchor, int32(v))
			}
		})
		if anchor < 0 {
			// A conditional touching no variable at all — unknown
			// trigger with no actions. Nothing can fire it, but don't
			// reason about constructs we don't recognize.
			return &partition{ncomp: 1}
		}
		anchors[ci] = anchor
	}

	// Volatile location classes: the coarsest partition solve-time
	// unification could produce, assuming every ActUnify fires.
	ls := g.ls
	nloc := ls.Len()
	luf := newUnionFind(nloc)
	for l := 0; l < nloc; l++ {
		luf.union(int32(l), int32(ls.Find(locs.Loc(l))))
	}
	hasUnify := false
	for _, c := range sys.Conds {
		for _, act := range c.Actions {
			if u, ok := act.(effects.ActUnify); ok {
				luf.union(int32(u.A), int32(u.B))
				hasUnify = true
			}
		}
	}
	if hasUnify {
		vol := make([]bool, nloc)
		for _, c := range sys.Conds {
			for _, act := range c.Actions {
				if u, ok := act.(effects.ActUnify); ok {
					vol[luf.find(int32(u.A))] = true
					vol[luf.find(int32(u.B))] = true
				}
			}
		}
		// Merge the components of everything mentioning a volatile
		// class: the first mentioner becomes the class's owner,
		// later mentioners union with it.
		owner := make([]int32, nloc)
		for i := range owner {
			owner[i] = -1
		}
		mention := func(l locs.Loc, v int32) {
			r := luf.find(int32(l))
			if !vol[r] {
				return
			}
			if owner[r] < 0 {
				owner[r] = v
			} else {
				uf.union(owner[r], v)
			}
		}
		for i := range g.norms {
			n := &g.norms[i]
			if n.Left.IsAtom {
				mention(n.Left.A.Loc, int32(n.V))
			}
			if n.Inter && n.Right.IsAtom {
				mention(n.Right.A.Loc, int32(n.V))
			}
		}
		for ci, c := range sys.Conds {
			anchor := anchors[ci]
			switch t := c.Trigger.(type) {
			case effects.LocIn:
				mention(t.Loc, anchor)
			case effects.AtomIn:
				mention(t.Loc, anchor)
			}
			for _, act := range c.Actions {
				switch act := act.(type) {
				case effects.ActUnify:
					mention(act.A, anchor)
					mention(act.B, anchor)
				case effects.ActAddAtom:
					mention(act.A.Loc, anchor)
				}
			}
		}
	}

	// Dense component IDs in first-variable order.
	compOf := make([]int32, nvar)
	rootComp := make([]int32, nvar)
	for i := range rootComp {
		rootComp[i] = -1
	}
	ncomp := int32(0)
	for v := int32(0); int(v) < nvar; v++ {
		r := uf.find(v)
		if rootComp[r] < 0 {
			rootComp[r] = ncomp
			ncomp++
		}
		compOf[v] = rootComp[r]
	}
	p := &partition{ncomp: int(ncomp), compOf: compOf}

	p.varStart, p.vars = csrGroup(int(ncomp), nvar, func(i int) int32 { return compOf[i] })
	p.inodeStart, p.inodes = csrGroup(int(ncomp), len(g.inter), func(i int) int32 {
		return compOf[g.inter[i].Out]
	})
	p.condStart, p.conds = csrGroup(int(ncomp), len(sys.Conds), func(i int) int32 {
		return compOf[anchors[i]]
	})
	return p
}

// csrGroup buckets items 0..n-1 by group (a stable counting sort), so
// each group's member list preserves the original index order.
func csrGroup(ngroup, n int, groupOf func(i int) int32) (start, members []int32) {
	start = make([]int32, ngroup+1)
	for i := 0; i < n; i++ {
		start[groupOf(i)+1]++
	}
	for gi := 0; gi < ngroup; gi++ {
		start[gi+1] += start[gi]
	}
	members = make([]int32, n)
	fill := make([]int32, ngroup)
	copy(fill, start[:ngroup])
	for i := 0; i < n; i++ {
		gi := groupOf(i)
		members[fill[gi]] = int32(i)
		fill[gi]++
	}
	return start, members
}
