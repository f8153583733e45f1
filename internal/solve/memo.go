package solve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"localalias/internal/bitset"
	"localalias/internal/effects"
	"localalias/internal/faults"
	"localalias/internal/locs"
	"localalias/internal/lru"
	"localalias/internal/obs"
)

// This file is the solver's incremental layer: a content-addressed
// memo of solved partition components.
//
// A partition component (see partition.go) is the unit of constraint
// interaction: no event inside one component can influence another.
// That makes it the natural unit of reuse across re-analyses of an
// edited module — the components generated by unchanged functions are
// regenerated structurally identical, only with shifted variable,
// location, and source-position indices. The memo therefore keys each
// component by a *canonical fingerprint* that is invariant under
// those shifts:
//
//   - effect variables and intersection nodes are numbered by their
//     position inside the component;
//   - abstract locations are numbered by the first mention of their
//     canonical class (two locations get the same symbol exactly when
//     Find coincides at solve start), and each class's union-by-rank
//     height rides along so unification winner choice is pinned;
//   - atom kinds, trigger/action shapes, and per-variable edge order
//     are serialized structurally; diagnostic names, spans, tags and
//     check constraints are deliberately excluded (they don't affect
//     propagation).
//
// A fingerprint hit replays the stored solution instead of solving:
// the fired conditionals are mapped back through the new component's
// own conditional list (their ActUnify actions are re-applied to the
// live location store, so downstream consumers observe real
// unifications), the component interner is rebuilt atom by atom in
// the recorded intern order, and the per-variable solution sets are
// reconstructed from recorded IDs. Everything observable — solution
// sets, firing order, unification effects, and every Stats counter —
// is byte-identical to a fresh solve of the component, which the
// differential tests assert over the whole corpus.
//
// Replay resolves recorded atoms through a symbol table: symbols
// below the fingerprint's mention count are the component's initial
// canonical classes; later symbols denote "the winner of the i-th
// unification this component performed", resolved while re-applying
// the ActUnify sequence. If the replayed store state ever disagrees
// with the recording (which would mean the fingerprint failed to pin
// an input), replay panics rather than risk a silently wrong result;
// the engine's fault guard degrades that module to a structured
// failure.

// memoVersion participates in every fingerprint so a change to the
// serialization invalidates all prior entries.
const memoVersion = 1

// DefaultMemoEntries bounds the component-summary memo when callers
// pass a non-positive capacity.
const DefaultMemoEntries = 8192

// Options bundles a solve's execution knobs. The zero value solves
// sequentially with no memo — exactly Solve.
type Options struct {
	// Workers bounds the partitioned solver's concurrency (<= 1
	// solves components sequentially). With a Memo set it bounds the
	// pool that solves memo misses.
	Workers int
	// Memo, when non-nil, enables component-summary reuse.
	Memo *Memo
	// Counters, when non-nil, receives this solve's per-component
	// reuse accounting (replayed vs freshly solved). The caller owns
	// the struct, so a request-scoped carrier sees exactly its own
	// solves even when the Memo is shared process-wide.
	Counters *MemoCounters
}

// MemoCounters accumulates component reuse accounting across the
// solves of one scope (typically one analysis request).
type MemoCounters struct {
	// Replayed counts components served from summaries.
	Replayed atomic.Int64
	// Solved counts components solved fresh (memo misses and
	// unpartitionable systems).
	Solved atomic.Int64
}

// MemoStats is a snapshot of a Memo's accounting.
type MemoStats = lru.Stats

// Memo is a bounded LRU of solved component summaries, keyed by
// canonical component fingerprint. It is safe for concurrent use and
// is shared process-wide by design: content addressing makes a hit
// valid regardless of which module (or which revision of it)
// produced the entry, so identical helper functions dedupe across
// modules for free.
type Memo struct {
	lru *lru.Cache[[32]byte, *compSummary]
}

// NewMemo builds a memo holding at most capacity component summaries
// (non-positive selects DefaultMemoEntries).
func NewMemo(capacity int) *Memo {
	if capacity <= 0 {
		capacity = DefaultMemoEntries
	}
	a := obs.App()
	return &Memo{lru: lru.New[[32]byte, *compSummary](capacity, lru.Counters{
		Hits: a.SolveMemoHits, Misses: a.SolveMemoMisses, Evictions: a.SolveMemoEvictions,
	})}
}

func (m *Memo) get(key [32]byte) *compSummary {
	sum, _ := m.lru.Get(key)
	return sum
}

func (m *Memo) put(key [32]byte, sum *compSummary) { m.lru.Put(key, sum) }

// Stats returns a snapshot of the memo's accounting.
func (m *Memo) Stats() MemoStats { return m.lru.Stats() }

// compSummary is the stored solution of one component, everything in
// component-local (position-independent) terms.
type compSummary struct {
	// Shape guards: a hit must match the new component exactly.
	nvars, ninodes, nconds int32
	// nsyms is the fingerprint's mentioned-class count; nwinners the
	// number of unifications the solve performed. Atom symbols index
	// the concatenation [initial classes ++ unify winners].
	nsyms, nwinners int32
	// atoms is the component interner's contents in intern order.
	atoms []summaryAtom
	// sets[i] lists the solution of the component's i-th variable as
	// ascending atom IDs.
	sets [][]int32
	// fired lists component-local conditional indices in firing order.
	fired []int32
	// stats holds the unit's work counters (Vars and Atoms are
	// recomputed by the merge, exactly as for a fresh unit).
	stats Stats
}

type summaryAtom struct {
	kind effects.Kind
	sym  int32
}

// SolveOpts is the options-bundle entry point: Solve, SolveCtx,
// SolveWorkers, and the memoized incremental path are all spellings
// of it. Results are byte-identical across every option combination.
func SolveOpts(ctx context.Context, sys *effects.System, opts Options) *Result {
	if opts.Memo == nil {
		return SolveWorkers(ctx, sys, opts.Workers)
	}
	sc := getScratch()
	g := newGraph(sys, sc)
	if p := newPartition(g); p.compOf != nil {
		// Memoize even single-component systems: driver-style modules
		// whose functions all touch one shared lock class collapse to
		// one component, and a comment-only edit misses the byte cache
		// on new source bytes while the component fingerprint (which
		// excludes positions and names) still hits — the whole solve
		// replays. Content addressing also dedupes identical systems
		// across modules.
		res := solveMemoized(ctx, sys, g, p, opts, sc)
		putScratch(sc)
		return res
	}
	// Degenerate system (empty, or a construct the partitioner doesn't
	// recognize): solve sequentially, uncached.
	if opts.Counters != nil {
		opts.Counters.Solved.Add(1)
	}
	res := solveSequential(ctx, sys, g, sc)
	putScratch(sc)
	return res
}

// fingerprint is one component's canonical identity plus the symbol
// table replay and extraction share.
type fingerprint struct {
	key  [32]byte
	syms []locs.Loc // canonical classes in first-mention order
}

// solveMemoized drains the partitioned system, replaying components
// whose fingerprint hits the memo and solving the rest on a bounded
// worker pool, then merges exactly like solveParallel.
func solveMemoized(ctx context.Context, sys *effects.System, g *graph, p *partition, opts Options, sc *scratch) *Result {
	ls := sys.Locs
	ls.Compress()

	nvar := g.nvar
	sets := make([]bitset.Set, nvar)
	left := make([]bitset.Set, len(g.inter))
	right := make([]bitset.Set, len(g.inter))
	watch := make([][]int32, nvar)

	// Component-local index of every variable and intersection node.
	localVar := make([]int32, nvar)
	for c := 0; c < p.ncomp; c++ {
		for i, v := range p.vars[p.varStart[c]:p.varStart[c+1]] {
			localVar[v] = int32(i)
		}
	}
	localInode := make([]int32, len(g.inter))
	for c := 0; c < p.ncomp; c++ {
		for i, in := range p.inodes[p.inodeStart[c]:p.inodeStart[c+1]] {
			localInode[in] = int32(i)
		}
	}

	// Fingerprint every component and probe the memo.
	fpr := newFingerprinter(g, p, ls, localVar, localInode)
	fps := make([]fingerprint, p.ncomp)
	sums := make([]*compSummary, p.ncomp)
	for c := 0; c < p.ncomp; c++ {
		fps[c] = fpr.component(c)
		if sum := opts.Memo.get(fps[c].key); sum != nil && sum.matches(p, c, fps[c]) {
			sums[c] = sum
		}
	}

	// Fresh units for the misses, exactly as solveParallel builds them,
	// with a recording unify observer so their solutions can be
	// summarized afterwards.
	units := make([]*solver, p.ncomp)
	var missOrder []int
	for c := 0; c < p.ncomp; c++ {
		if sums[c] != nil {
			continue
		}
		u := &solver{
			g:        g,
			ls:       ls,
			in:       getInterner(),
			ctx:      ctx,
			myVars:   p.vars[p.varStart[c]:p.varStart[c+1]],
			myInodes: p.inodes[p.inodeStart[c]:p.inodeStart[c+1]],
			sets:     sets,
			left:     left,
			right:    right,
			watch:    watch,
		}
		ci := p.conds[p.condStart[c]:p.condStart[c+1]]
		u.conds = make([]*effects.Cond, len(ci))
		for k, gi := range ci {
			u.conds[k] = sys.Conds[gi]
		}
		u.pending = make([]bool, len(u.conds))
		u.obsUnify = func(winner, loser locs.Loc) {
			u.unified = true
			u.stats.Unifications++
			u.losers = append(u.losers, loser)
			u.memoWinners = append(u.memoWinners, winner)
		}
		units[c] = u
		missOrder = append(missOrder, c)
	}

	// Heaviest misses first (same scheduling heuristic as the parallel
	// driver; determinism does not depend on it).
	weight := func(c int) int {
		return int(p.varStart[c+1]-p.varStart[c]) +
			int(p.inodeStart[c+1]-p.inodeStart[c]) +
			int(p.condStart[c+1]-p.condStart[c])
	}
	sort.Slice(missOrder, func(i, j int) bool {
		wi, wj := weight(missOrder[i]), weight(missOrder[j])
		if wi != wj {
			return wi > wj
		}
		return missOrder[i] < missOrder[j]
	})

	nw := opts.Workers
	if nw < 1 {
		nw = 1
	}
	if nw > len(missOrder) {
		nw = len(missOrder)
	}
	panics := make([]any, p.ncomp)
	var wg sync.WaitGroup
	if len(missOrder) > 0 {
		var cursor atomic.Int32
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(cursor.Add(1)) - 1
					if i >= len(missOrder) {
						return
					}
					c := missOrder[i]
					runUnit(units[c], &panics[c])
				}
			}()
		}
	}

	// Replay the hits on the coordinator while the pool drains the
	// misses: replays touch only their own component's rows and
	// location classes, the same disjointness the parallel solver
	// relies on. A replay panic (fingerprint divergence) is captured
	// like a worker panic so the pool still joins before rethrow.
	replayed := make([]*effects.Interner, p.ncomp)
	replayedFired := make([][]*effects.Cond, p.ncomp)
	for c := 0; c < p.ncomp; c++ {
		if sums[c] == nil {
			continue
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					panics[c] = faults.CaptureWorkerPanic(r)
				}
			}()
			replayed[c], replayedFired[c] = replayComponent(sys, p, c, sums[c], fps[c], ls, sets)
		}()
	}
	wg.Wait()
	for c := 0; c < p.ncomp; c++ {
		if panics[c] != nil {
			panic(panics[c])
		}
	}
	if opts.Counters != nil {
		opts.Counters.Replayed.Add(int64(p.ncomp - len(missOrder)))
		opts.Counters.Solved.Add(int64(len(missOrder)))
	}

	// Summarize and store the freshly solved components.
	for _, c := range missOrder {
		if sum := extractSummary(units[c], p, c, fps[c]); sum != nil {
			opts.Memo.put(fps[c].key, sum)
		}
	}

	// Merge, exactly as solveParallel does.
	res := &Result{
		sys:    sys,
		ls:     ls,
		sets:   sets,
		parts:  make([]*effects.Interner, p.ncomp),
		partOf: p.compOf,
	}
	var atomKeys bitset.Set
	for c := 0; c < p.ncomp; c++ {
		var in *effects.Interner
		var fired []*effects.Cond
		var st Stats
		if u := units[c]; u != nil {
			in, fired, st = u.in, u.fired, u.stats
		} else {
			in, fired, st = replayed[c], replayedFired[c], sums[c].stats
		}
		res.parts[c] = in
		res.Fired = append(res.Fired, fired...)
		res.Stats.AtomsPropagated += st.AtomsPropagated
		res.Stats.IntersectionArrivals += st.IntersectionArrivals
		res.Stats.CondFirings += st.CondFirings
		res.Stats.Unifications += st.Unifications
		if st.Recanonicalizations > res.Stats.Recanonicalizations {
			res.Stats.Recanonicalizations = st.Recanonicalizations
		}
		for i := 0; i < in.Len(); i++ {
			a := in.Atom(effects.ID(i))
			atomKeys.Add(int(a.Loc)*4 + int(a.Kind))
		}
	}
	res.Stats.Atoms = atomKeys.Len()
	res.Stats.Vars = nvar
	res.AtomsPropagated = res.Stats.AtomsPropagated

	st := &res.Stats
	a := obs.App()
	a.RecordSolve(st.AtomsPropagated, st.IntersectionArrivals,
		st.CondFirings, st.Unifications, st.Recanonicalizations)
	sizes := make([]int, p.ncomp)
	for c := range sizes {
		sizes[c] = weight(c)
	}
	a.RecordSolvePartition(nw, sizes)
	return res
}

// matches reports whether a stored summary's shape agrees with the
// new component — a cheap guard on top of the 256-bit fingerprint.
func (s *compSummary) matches(p *partition, c int, fp fingerprint) bool {
	return s.nvars == p.varStart[c+1]-p.varStart[c] &&
		s.ninodes == p.inodeStart[c+1]-p.inodeStart[c] &&
		s.nconds == p.condStart[c+1]-p.condStart[c] &&
		s.nsyms == int32(len(fp.syms))
}

// ---------------------------------------------------------------------
// Fingerprinting

// fingerprinter hashes components one at a time, reusing its buffers.
type fingerprinter struct {
	g          *graph
	p          *partition
	ls         *locs.Store
	localVar   []int32
	localInode []int32

	locSym []int32 // canonical class -> symbol, -1 when unassigned
	syms   []locs.Loc
	buf    []byte
}

func newFingerprinter(g *graph, p *partition, ls *locs.Store, localVar, localInode []int32) *fingerprinter {
	locSym := make([]int32, ls.Len())
	for i := range locSym {
		locSym[i] = -1
	}
	return &fingerprinter{g: g, p: p, ls: ls, localVar: localVar, localInode: localInode, locSym: locSym}
}

// sym returns the component-local symbol of l's canonical class,
// assigning the next one on first mention.
func (f *fingerprinter) sym(l locs.Loc) int32 {
	r := f.ls.Find(l)
	if int(r) >= len(f.locSym) {
		// Locations created after the store snapshot (cannot happen
		// between graph build and fingerprinting, but stay safe).
		grown := make([]int32, int(r)+1)
		copy(grown, f.locSym)
		for i := len(f.locSym); i < len(grown); i++ {
			grown[i] = -1
		}
		f.locSym = grown
	}
	if f.locSym[r] < 0 {
		f.locSym[r] = int32(len(f.syms))
		f.syms = append(f.syms, r)
	}
	return f.locSym[r]
}

func (f *fingerprinter) u(x uint64) { f.buf = binary.AppendUvarint(f.buf, x) }
func (f *fingerprinter) b(x byte)   { f.buf = append(f.buf, x) }
func (f *fingerprinter) atom(a effects.Atom) {
	f.b(byte(a.Kind))
	f.u(uint64(f.sym(a.Loc)))
}

// component computes component c's canonical fingerprint and symbol
// table.
func (f *fingerprinter) component(c int) fingerprint {
	g, p := f.g, f.p
	f.buf = f.buf[:0]
	f.syms = f.syms[:0]
	f.b(memoVersion)

	vars := p.vars[p.varStart[c]:p.varStart[c+1]]
	inodes := p.inodes[p.inodeStart[c]:p.inodeStart[c+1]]
	conds := p.conds[p.condStart[c]:p.condStart[c+1]]
	f.u(uint64(len(vars)))
	f.u(uint64(len(inodes)))
	f.u(uint64(len(conds)))

	for _, v := range vars {
		seeds := g.seeds[v]
		f.u(uint64(len(seeds)))
		for _, a := range seeds {
			f.atom(a)
		}
		row := g.outEdges(v)
		f.u(uint64(len(row)))
		for _, t := range row {
			f.b(byte(t.kind))
			switch t.kind {
			case toVar:
				f.u(uint64(f.localVar[t.idx]))
			default:
				f.u(uint64(f.localInode[t.idx]))
			}
		}
	}

	for _, i := range inodes {
		in := &g.inter[i]
		f.u(uint64(f.localVar[in.Out]))
		f.u(uint64(len(in.leftSeeds)))
		for _, a := range in.leftSeeds {
			f.atom(a)
		}
		f.u(uint64(len(in.rightSeeds)))
		for _, a := range in.rightSeeds {
			f.atom(a)
		}
	}

	for _, ci := range conds {
		cond := g.sys.Conds[ci]
		switch t := cond.Trigger.(type) {
		case effects.LocIn:
			f.b(1)
			f.u(uint64(f.localVar[t.V]))
			f.u(uint64(f.sym(t.Loc)))
		case effects.AtomIn:
			f.b(2)
			f.u(uint64(f.localVar[t.V]))
			f.b(byte(t.Kind))
			f.u(uint64(f.sym(t.Loc)))
		case effects.KindIn:
			f.b(3)
			f.u(uint64(f.localVar[t.V]))
			f.b(byte(t.Kind))
		case effects.PairIn:
			f.b(4)
			f.u(uint64(f.localVar[t.VA]))
			f.b(byte(t.KindA))
			f.u(uint64(f.localVar[t.VB]))
			f.b(byte(t.KindB))
		default:
			// Unknown triggers never fire (the solver's predicates
			// return false for them), so shape alone identifies them.
			f.b(255)
		}
		f.u(uint64(len(cond.Actions)))
		for _, act := range cond.Actions {
			switch act := act.(type) {
			case effects.ActUnify:
				f.b(1)
				f.u(uint64(f.sym(act.A)))
				f.u(uint64(f.sym(act.B)))
			case effects.ActIncl:
				f.b(2)
				f.u(uint64(f.localVar[act.From]))
				f.u(uint64(f.localVar[act.To]))
			case effects.ActAddAtom:
				f.b(3)
				f.atom(act.A)
				f.u(uint64(f.localVar[act.V]))
			default:
				// Unknown actions are ignored by fire(); shape-only.
				f.b(255)
			}
		}
	}

	// Per-class union-by-rank heights, in symbol order: unification
	// winner choice (and with it the post-merge atom ID sequence)
	// depends on them, so two components only share a fingerprint when
	// their classes would merge identically.
	for _, r := range f.syms {
		f.b(byte(f.ls.Rank(r)))
	}

	fp := fingerprint{key: sha256.Sum256(f.buf)}
	fp.syms = append([]locs.Loc(nil), f.syms...)
	// Reset the touched symbol slots for the next component.
	for _, r := range f.syms {
		f.locSym[f.ls.Find(r)] = -1
	}
	return fp
}

// ---------------------------------------------------------------------
// Extraction and replay

// extractSummary converts a drained unit into a storable summary.
// It returns nil when the unit's state cannot be expressed in
// component-local terms (an atom over a location the fingerprint never
// mentioned — only possible if an outside client unified locations
// mid-solve), in which case the component simply isn't cached.
func extractSummary(u *solver, p *partition, c int, fp fingerprint) *compSummary {
	locToSym := make(map[locs.Loc]int32, len(fp.syms)+len(u.memoWinners))
	for i, r := range fp.syms {
		if _, ok := locToSym[r]; !ok {
			locToSym[r] = int32(i)
		}
	}
	for j, w := range u.memoWinners {
		if _, ok := locToSym[w]; !ok {
			locToSym[w] = int32(len(fp.syms) + j)
		}
	}

	sum := &compSummary{
		nvars:    p.varStart[c+1] - p.varStart[c],
		ninodes:  p.inodeStart[c+1] - p.inodeStart[c],
		nconds:   p.condStart[c+1] - p.condStart[c],
		nsyms:    int32(len(fp.syms)),
		nwinners: int32(len(u.memoWinners)),
	}

	sum.atoms = make([]summaryAtom, u.in.Len())
	for i := range sum.atoms {
		a := u.in.Atom(effects.ID(i))
		sym, ok := locToSym[a.Loc]
		if !ok {
			return nil
		}
		sum.atoms[i] = summaryAtom{kind: a.Kind, sym: sym}
	}

	vars := p.vars[p.varStart[c]:p.varStart[c+1]]
	sum.sets = make([][]int32, len(vars))
	for i, v := range vars {
		sum.sets[i] = u.sets[v].AppendMembers(nil)
	}

	condIdx := make(map[*effects.Cond]int32, len(u.conds))
	for i, cond := range u.conds {
		condIdx[cond] = int32(i)
	}
	sum.fired = make([]int32, len(u.fired))
	for i, cond := range u.fired {
		li, ok := condIdx[cond]
		if !ok {
			return nil
		}
		sum.fired[i] = li
	}
	sum.stats = u.stats
	return sum
}

// replayDiverged aborts a replay whose observations contradict the
// recording. The fingerprint is supposed to pin every solve input, so
// this firing means a bug in the memo layer; panicking degrades the
// module through the fault guard instead of returning wrong bytes.
func replayDiverged(what string) {
	panic(fmt.Sprintf("solve: memo replay diverged (%s)", what))
}

// replayComponent reconstructs component c's solved state from sum:
// re-applies the recorded unification sequence to the live location
// store, rebuilds the component interner in recorded intern order,
// and refills the component's solution sets. Returns the interner and
// the fired conditionals mapped into the new system.
func replayComponent(sys *effects.System, p *partition, c int, sum *compSummary, fp fingerprint, ls *locs.Store, sets []bitset.Set) (*effects.Interner, []*effects.Cond) {
	condIdxs := p.conds[p.condStart[c]:p.condStart[c+1]]
	fired := make([]*effects.Cond, len(sum.fired))
	for i, li := range sum.fired {
		if int(li) >= len(condIdxs) {
			replayDiverged("fired index out of range")
		}
		fired[i] = sys.Conds[condIdxs[li]]
	}

	// Re-apply the unifications of the fired conditionals in firing
	// order, extending the symbol table with each observed winner.
	resolve := make([]locs.Loc, len(fp.syms), len(fp.syms)+int(sum.nwinners))
	copy(resolve, fp.syms)
	for _, cond := range fired {
		for _, act := range cond.Actions {
			if u, ok := act.(effects.ActUnify); ok {
				ls.UnifyObserved(u.A, u.B, func(winner, loser locs.Loc) {
					resolve = append(resolve, winner)
				})
			}
		}
	}
	if int(sum.nwinners) != len(resolve)-len(fp.syms) {
		replayDiverged("unification count mismatch")
	}

	in := getInterner()
	for _, a := range sum.atoms {
		if int(a.sym) >= len(resolve) {
			replayDiverged("atom symbol out of range")
		}
		in.Intern(effects.Atom{Kind: a.kind, Loc: resolve[a.sym]})
	}
	if in.Len() != len(sum.atoms) {
		replayDiverged("interner dedup mismatch")
	}

	vars := p.vars[p.varStart[c]:p.varStart[c+1]]
	if len(sum.sets) != len(vars) {
		replayDiverged("variable count mismatch")
	}
	natoms := len(sum.atoms)
	for i, v := range vars {
		for _, id := range sum.sets[i] {
			if int(id) >= natoms {
				replayDiverged("set member out of range")
			}
			sets[v].Add(int(id))
		}
	}
	return in, fired
}
