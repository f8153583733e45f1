package solve

import (
	"context"
	"fmt"
	"sort"

	"localalias/internal/bitset"
	"localalias/internal/effects"
	"localalias/internal/faults"
	"localalias/internal/locs"
	"localalias/internal/obs"
)

// Result is the least solution of a constraint system, together with
// the conditional constraints that fired while computing it.
//
// Solution sets are stored as bitsets over interned atom IDs; the
// accessor methods translate back to effects.Atom values, always
// under canonical (post-unification) locations. A whole-graph solve
// uses one interner for every variable; a memoized solve (see
// SolveOpts) interns per component, and partOf routes each variable's
// reads to its component's table. Per-variable atom order is
// identical either way — a component's intern order depends only on
// the component — so every accessor returns byte-identical answers
// with or without the memo.
type Result struct {
	sys  *effects.System
	ls   *locs.Store
	in   *effects.Interner
	sets []bitset.Set

	// parts/partOf replace in for partitioned solves: variable v's
	// set holds IDs of parts[partOf[v]].
	parts  []*effects.Interner
	partOf []int32

	// ret holds the pooled storage this Result retains (interner and
	// solution-set arena); Release returns it.
	ret      *retained
	released bool

	// Fired lists the conditional constraints whose triggers became
	// true, in firing order. Inference interprets these: a fired
	// "failure" conditional unified a candidate's ρ and ρ′, turning
	// the candidate back into a plain let. A partitioned solve
	// concatenates per-component firing sequences in component order;
	// conditionals that can interact always share a component, so
	// every per-pair and per-tag order consumers rely on is preserved.
	Fired []*effects.Cond

	// AtomsPropagated counts insert operations (for benchmarks).
	// Equal to Stats.AtomsPropagated; retained as a field because
	// long-standing benchmarks read it directly.
	AtomsPropagated int

	// Stats counts the work performed while solving.
	Stats Stats
}

// interner returns the atom table that v's solution set indexes.
func (r *Result) interner(v effects.Var) *effects.Interner {
	if r.partOf == nil {
		return r.in
	}
	return r.parts[r.partOf[v]]
}

// check guards accessors against use-after-Release.
func (r *Result) check() {
	if r.released {
		panic("solve: Result used after Release")
	}
}

// Release returns the Result's pooled storage (interner tables and
// the solution-set arena) for reuse by later solves. It is optional —
// an unreleased Result is simply garbage-collected — but steady-state
// callers like the daemon release after rendering a response so the
// solver's big allocations are recycled instead of churned. After
// Release every accessor panics; the Result must not be used again.
func (r *Result) Release() {
	if r.released {
		return
	}
	r.released = true
	if r.ret != nil {
		putRetained(r.ret)
		r.ret = nil
	}
	for _, in := range r.parts {
		putInterner(in)
	}
	r.in, r.sets, r.parts, r.partOf = nil, nil, nil, nil
}

// Malformed returns the undecomposable inclusion constraints the
// pre-solve normalization dropped (see effects.System.Malformed).
// Non-empty means the least solution is computed over an incomplete
// system; pipeline callers must surface these as internal-error
// diagnostics and fail the module.
func (r *Result) Malformed() []effects.MalformedExpr {
	return r.sys.Malformed
}

// Atoms returns the canonical atoms of v's solution, sorted.
func (r *Result) Atoms(v effects.Var) []effects.Atom {
	r.check()
	in := r.interner(v)
	var out []effects.Atom
	seen := make(map[effects.Atom]bool)
	r.sets[v].ForEach(func(i int) {
		a := in.Atom(effects.ID(i))
		ca := effects.Atom{Kind: a.Kind, Loc: r.ls.Find(a.Loc)}
		if !seen[ca] {
			seen[ca] = true
			out = append(out, ca)
		}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Loc != out[j].Loc {
			return out[i].Loc < out[j].Loc
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// EachAtom calls f for every atom of v's solution with its location
// canonicalized, without allocating. If locations were unified after
// the solve, f may observe the same canonical atom more than once
// (Atoms dedupes; this does not) — callers doing idempotent work per
// atom, like the qualifier analysis's havoc, don't care.
func (r *Result) EachAtom(v effects.Var, f func(effects.Atom)) {
	r.check()
	in := r.interner(v)
	r.sets[v].ForEach(func(i int) {
		a := in.Atom(effects.ID(i))
		f(effects.Atom{Kind: a.Kind, Loc: r.ls.Find(a.Loc)})
	})
}

// ContainsLoc reports whether v's solution has any atom over loc.
func (r *Result) ContainsLoc(v effects.Var, loc locs.Loc) bool {
	r.check()
	in := r.interner(v)
	rho := r.ls.Find(loc)
	found := false
	r.sets[v].ForEach(func(i int) {
		if !found && r.ls.Find(in.Atom(effects.ID(i)).Loc) == rho {
			found = true
		}
	})
	return found
}

// ContainsAtom reports whether v's solution has the atom (canonical
// location comparison).
func (r *Result) ContainsAtom(v effects.Var, a effects.Atom) bool {
	r.check()
	in := r.interner(v)
	rho := r.ls.Find(a.Loc)
	found := false
	r.sets[v].ForEach(func(i int) {
		b := in.Atom(effects.ID(i))
		if !found && b.Kind == a.Kind && r.ls.Find(b.Loc) == rho {
			found = true
		}
	})
	return found
}

// Violations evaluates every check of the system — disinclusions,
// kind-absence checks and pair checks — against the least solution.
func (r *Result) Violations() []Violation {
	r.check()
	var out []Violation
	for _, ni := range r.sys.NotIns {
		if r.ContainsLoc(ni.V, ni.Loc) {
			out = append(out, Violation{
				Site:   ni.Site,
				What:   ni.What,
				Detail: fmt.Sprintf("ρ%d (%s) is in %s", ni.Loc, r.ls.Name(ni.Loc), r.sys.VarName(ni.V)),
			})
		}
	}
	for _, kn := range r.sys.KindNotIns {
		if a, ok := r.firstOfKind(kn.V, kn.Kind); ok {
			out = append(out, Violation{
				Site:   kn.Site,
				What:   kn.What,
				Detail: fmt.Sprintf("%s(%s) is in %s", a.Kind, r.ls.Name(a.Loc), r.sys.VarName(kn.V)),
			})
		}
	}
	for _, pn := range r.sys.PairNotIns {
		inA := r.interner(pn.VA)
		hit := false
		var witness effects.Atom
		r.sets[pn.VA].ForEach(func(i int) {
			if hit {
				return
			}
			a := inA.Atom(effects.ID(i))
			if a.Kind == pn.KindA && r.hasKindLocResult(pn.VB, pn.KindB, a.Loc) {
				hit = true
				witness = a
			}
		})
		if hit {
			out = append(out, Violation{
				Site: pn.Site,
				What: pn.What,
				Detail: fmt.Sprintf("%s(%s) in %s and %s of it in %s",
					pn.KindA, r.ls.Name(witness.Loc), r.sys.VarName(pn.VA),
					pn.KindB, r.sys.VarName(pn.VB)),
			})
		}
	}
	return out
}

// firstOfKind returns the lowest-ID atom of kind k in v's solution.
func (r *Result) firstOfKind(v effects.Var, k effects.Kind) (effects.Atom, bool) {
	in := r.interner(v)
	var got effects.Atom
	found := false
	r.sets[v].ForEach(func(i int) {
		if found {
			return
		}
		if a := in.Atom(effects.ID(i)); a.Kind == k {
			got, found = a, true
		}
	})
	return got, found
}

func (r *Result) hasKindLocResult(v effects.Var, k effects.Kind, loc locs.Loc) bool {
	in := r.interner(v)
	rho := r.ls.Find(loc)
	found := false
	r.sets[v].ForEach(func(i int) {
		a := in.Atom(effects.ID(i))
		if !found && a.Kind == k && r.ls.Find(a.Loc) == rho {
			found = true
		}
	})
	return found
}

// ---------------------------------------------------------------------
// Solver
//
// The solver works entirely over dense indices: variables and
// intersection nodes are int32s from the graph, atoms are interned
// IDs, solution/gate sets are bitsets, and static out-edges come from
// the graph's CSR rows. Only two structures can grow mid-solve: the
// interner (a unification creates the canonical successor of a stale
// atom) and the `extra` edge overlay (an ActIncl adds an inclusion).
//
// One solver instance drains one unit of work: the whole graph
// (myVars/myInodes nil — the sequential path) or a single connected
// component of it (the memo's partitioned path, where
// sets/left/right/watch are shared arrays written only at indices the
// unit owns). A unit's execution depends only on its own slice of the
// system, which is what makes the partitioned path reproduce the
// whole-graph solver's per-variable results exactly (see
// docs/ALGORITHMS.md, "Component-partitioned solving").

type solver struct {
	g  *graph
	ls *locs.Store
	in *effects.Interner

	// ctx bounds the solve: the propagation loop checks its deadline
	// periodically (every deadlineStride insertions) so a per-module
	// timeout can abort a pathological constraint system
	// cooperatively. nil means unbounded.
	ctx   context.Context
	steps int

	// myVars/myInodes restrict this solver to one partition component;
	// nil means the whole graph.
	myVars   []int32
	myInodes []int32

	// extra overlays conditional-added out-edges on the immutable CSR
	// skeleton; nil until the first ActIncl fires.
	extra [][]target

	sets  []bitset.Set // per variable: atom IDs
	left  []bitset.Set // per inode: atom IDs buffered on the left
	right []bitset.Set // per inode: canonical locations seen on the right

	// queue of pending insertions.
	queue []qitem

	// pending[ci] is whether cond ci is still unfired; watch[v] lists
	// the conds whose trigger observes v, so an atom arrival only
	// examines the conds that could care. Rechecks walk conds in
	// creation order for deterministic firing. For a unit solver,
	// conds is the unit's creation-order subsequence and watch rows
	// hold unit-local indices (a trigger's variables are always in
	// the trigger's own component, so rows are unit-owned).
	conds   []*effects.Cond
	pending []bool
	watch   [][]int32

	unified bool // set by the unify observer

	// obsUnify is the per-solver unification observer passed to
	// locs.Store.UnifyObserved: unlike a registered OnUnify callback
	// it lives exactly as long as the solve and never sees another
	// unit's unifications.
	obsUnify func(winner, loser locs.Loc)

	// idsByLoc[rho] lists the IDs interned under location rho (the
	// location was canonical at intern time). When rho later loses a
	// unification, exactly those IDs go stale — so re-canonicalization
	// processes the affected IDs instead of rescanning the table.
	idsByLoc [][]effects.ID
	// losers accumulates the absorbed representatives since the last
	// re-canonicalization, recorded by the unify observer.
	losers []locs.Loc
	// memoWinners records the surviving representative of each
	// unification in order, set only by the memoized driver's observer
	// (see memo.go): the summary encodes post-unification atoms as
	// "winner of the i-th merge", so extraction needs the sequence.
	memoWinners []locs.Loc

	scratch  []int32      // reusable bitset snapshot buffer
	staleBuf []effects.ID // reusable stale-ID buffer

	// stats and fired accumulate this unit's work; the driver merges
	// them into the Result.
	stats Stats
	fired []*effects.Cond
}

type qitem struct {
	v  effects.Var
	id effects.ID
}

// Solve computes the least solution of sys, firing conditional
// constraints as their triggers become true. The algorithm is the
// paper's worklist scheme: initial propagation costs O(n·|locs|); each
// of the O(n) possible location unifications triggers O(n) of
// re-propagation, for the stated O(n²) bound.
func Solve(sys *effects.System) *Result {
	return SolveOpts(nil, sys, Options{})
}

// deadlineStride is how many propagation steps pass between deadline
// checks — frequent enough that a timed-out module aborts promptly,
// rare enough to stay off the hot-path profile.
const deadlineStride = 4096

// solveSequential runs one solver over the whole graph. All big
// structures come from the pooled scratch; the two the Result
// retains (interner, solution-set arena) ride in a retained wrapper
// until Result.Release.
func solveSequential(ctx context.Context, sys *effects.System, g *graph, sc *scratch) *Result {
	ret := getRetained(sys.Locs.Len())
	s := &solver{
		g:   g,
		ls:  sys.Locs,
		in:  ret.in,
		ctx: ctx,
	}
	s.attachScratch(sc, sys.Locs.Len())

	// Pre-intern every seed atom so the ID space is known before the
	// solution bitsets are carved; the seeding loop below then hits
	// the interner map without growing it.
	s.preInternSeeds()

	// Conditionals and unifications intern more IDs later (canonical
	// successors of merged atoms); leave slack so those don't force
	// every set to regrow. Very large var×ID products fall back to
	// organic per-set growth rather than a quadratic arena. Right
	// sets are indexed by location, where members are few but the
	// index space is the whole store — organic growth fits them
	// better than an arena row per inode.
	idWords := s.in.Len()/48 + 4
	if g.nvar*idWords <= 1<<22 {
		s.sets = ret.setsBuf.Carve(g.nvar, idWords)
	} else {
		s.sets = make([]bitset.Set, g.nvar)
	}
	s.left = sc.leftBuf.Carve(len(g.inter), idWords)
	s.right = sc.takeRight(len(g.inter))

	s.conds = sys.Conds
	s.pending = sc.takePending(len(sys.Conds))
	s.watch = sc.takeWatch(g.nvar)
	s.buildWatch()

	s.seed()
	s.run()

	res := &Result{sys: sys, ls: sys.Locs, in: s.in, sets: s.sets, ret: ret}
	res.Fired = s.fired
	res.Stats = s.stats
	res.Stats.Vars = g.nvar
	res.Stats.Atoms = s.in.Len()
	res.AtomsPropagated = res.Stats.AtomsPropagated
	sc.reclaim(s)

	// Fold the per-solve work counters into the process-wide metrics
	// registry: a handful of atomic adds once per solve, so the
	// propagation loop itself carries zero instrumentation.
	st := &res.Stats
	obs.App().RecordSolve(st.AtomsPropagated, st.IntersectionArrivals,
		st.CondFirings, st.Unifications, st.Recanonicalizations)
	return res
}

// attachScratch wires the pooled per-solve buffers that every unit
// uses (worklist, loser list, snapshot buffers, stale-ID index).
func (s *solver) attachScratch(sc *scratch, nlocs int) {
	s.queue = sc.queue[:0]
	s.losers = sc.losers[:0]
	s.scratch = sc.scratchBuf[:0]
	s.staleBuf = sc.staleBuf[:0]
	s.idsByLoc = sc.takeIDsByLoc(nlocs)
	s.obsUnify = func(winner, loser locs.Loc) {
		s.unified = true
		s.stats.Unifications++
		s.losers = append(s.losers, loser)
	}
}

// forVars calls f for every variable of this solver's unit, in
// ascending order — the same relative order the whole-graph solver
// visits them in, which is what keeps per-variable intern order the
// same on both paths.
func (s *solver) forVars(f func(v int32)) {
	if s.myVars == nil {
		for v := int32(0); int(v) < s.g.nvar; v++ {
			f(v)
		}
		return
	}
	for _, v := range s.myVars {
		f(v)
	}
}

// forInodes calls f for every intersection node of the unit,
// ascending.
func (s *solver) forInodes(f func(i int32)) {
	if s.myInodes == nil {
		for i := int32(0); int(i) < len(s.g.inter); i++ {
			f(i)
		}
		return
	}
	for _, i := range s.myInodes {
		f(i)
	}
}

func (s *solver) preInternSeeds() {
	s.forVars(func(v int32) {
		for _, a := range s.g.seeds[v] {
			s.internCanon(a)
		}
	})
	s.forInodes(func(i int32) {
		in := &s.g.inter[i]
		for _, a := range in.leftSeeds {
			s.internCanon(a)
		}
		for _, a := range in.rightSeeds {
			s.internCanon(a)
		}
	})
}

// buildWatch marks every cond pending and indexes conds by the
// variables their triggers observe.
func (s *solver) buildWatch() {
	for ci, c := range s.conds {
		s.pending[ci] = true
		lci := int32(ci)
		forTriggerVars(c.Trigger, func(v effects.Var) {
			s.watch[v] = append(s.watch[v], lci)
		})
	}
}

// seed feeds the unit's direct atom inclusions into the worklist.
func (s *solver) seed() {
	s.forVars(func(v int32) {
		for _, a := range s.g.seeds[v] {
			s.insert(effects.Var(v), s.internCanon(a))
		}
	})
	s.forInodes(func(i int32) {
		in := &s.g.inter[i]
		for _, a := range in.leftSeeds {
			s.arriveLeft(i, s.internCanon(a))
		}
		for _, a := range in.rightSeeds {
			s.arriveRight(i, s.internCanon(a))
		}
	})
}

// run drains the unit to its fixpoint: propagate until quiescent,
// then re-canonicalize and re-check triggers after unifications,
// repeating while anything moved.
func (s *solver) run() {
	for {
		faults.CheckDeadline(s.ctx)
		s.drain()
		// Propagation quiesced. If a unification happened, atoms with
		// stale locations must be re-canonicalized and intersection
		// gates re-examined; triggers may also newly match.
		if s.unified {
			s.unified = false
			s.recanonicalize()
			s.recheckConds()
			if len(s.queue) > 0 || s.unified {
				continue
			}
		}
		break
	}
}

func (s *solver) drain() {
	for len(s.queue) > 0 {
		if s.steps++; s.ctx != nil && s.steps%deadlineStride == 0 {
			faults.CheckDeadline(s.ctx)
		}
		it := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		s.propagate(it.v, it.id)
	}
}

// internCanon interns a under its canonical location.
func (s *solver) internCanon(a effects.Atom) effects.ID {
	a.Loc = s.ls.Find(a.Loc)
	return s.intern(a)
}

// intern assigns a's dense ID; a.Loc must already be canonical. Newly
// interned IDs are indexed by location so a later unification can
// find the stale IDs without scanning the table.
func (s *solver) intern(a effects.Atom) effects.ID {
	n := s.in.Len()
	id := s.in.Intern(a)
	if int(id) == n {
		for int(a.Loc) >= len(s.idsByLoc) {
			s.idsByLoc = append(s.idsByLoc, nil)
		}
		s.idsByLoc[a.Loc] = append(s.idsByLoc[a.Loc], id)
	}
	return id
}

// canonID re-resolves id after possible unifications. In the common
// case (no unification since the atom was interned) this is a single
// union-find read; otherwise the canonical successor is interned.
func (s *solver) canonID(id effects.ID) effects.ID {
	a := s.in.Atom(id)
	if c := s.ls.Find(a.Loc); c != a.Loc {
		return s.intern(effects.Atom{Kind: a.Kind, Loc: c})
	}
	return id
}

// insert adds the atom (canonicalized) to v, queueing propagation.
func (s *solver) insert(v effects.Var, id effects.ID) {
	id = s.canonID(id)
	if s.sets[v].Add(int(id)) {
		s.stats.AtomsPropagated++
		s.queue = append(s.queue, qitem{v: v, id: id})
	}
}

// propagate pushes the atom (already recorded in v) along v's
// out-edges and checks triggers watching v.
func (s *solver) propagate(v effects.Var, id effects.ID) {
	for _, t := range s.g.outEdges(int32(v)) {
		s.follow(t, id)
	}
	if s.extra != nil {
		for _, t := range s.extra[v] {
			s.follow(t, id)
		}
	}
	s.checkTriggersFor(v, id)
}

func (s *solver) follow(t target, id effects.ID) {
	switch t.kind {
	case toVar:
		s.insert(effects.Var(t.idx), id)
	case toLeft:
		s.arriveLeft(t.idx, id)
	case toRight:
		s.arriveRight(t.idx, id)
	}
}

func (s *solver) arriveLeft(i int32, id effects.ID) {
	id = s.canonID(id)
	if !s.left[i].Add(int(id)) {
		return
	}
	s.stats.IntersectionArrivals++
	if s.right[i].Has(int(s.in.Atom(id).Loc)) {
		s.insert(s.g.inter[i].Out, id)
	}
}

func (s *solver) arriveRight(i int32, id effects.ID) {
	rho := s.ls.Find(s.in.Atom(id).Loc)
	if !s.right[i].Add(int(rho)) {
		return
	}
	s.stats.IntersectionArrivals++
	out := s.g.inter[i].Out
	s.left[i].ForEach(func(b int) {
		bid := effects.ID(b)
		if s.ls.Find(s.in.Atom(bid).Loc) == rho {
			s.insert(out, bid)
		}
	})
}

// recanonicalize restores the solver's invariants after location
// unifications. Variable sets need no rewriting at all: every read
// path — insert's canonID, trigger predicates, gate comparisons, and
// the Result accessors — resolves an atom's location through Find, so
// a member whose class was absorbed simply denotes its canonical
// successor and any future arrival of that successor dedupes against
// it through canonID. The only structures that compare by stored
// value are the intersection nodes, whose right sets hold canonical
// location indices and whose gates probe them with Has. So the pass
// is incremental and inode-local: the unify observer records each
// absorbed representative, idsByLoc maps it to exactly the atom IDs
// that went stale, and only gates holding a stale atom or location
// are re-examined. An untouched gate's members all kept their
// representatives, so it was already fully evaluated by the arrival
// rules and cannot newly unlock. This bounds the pass by
// O(inodes · stale) bit probes — the paper's O(n) "extra work to
// recompute reachability for the unified locations" per unification.
func (s *solver) recanonicalize() {
	s.stats.Recanonicalizations++
	if len(s.losers) == 0 {
		return
	}
	losers := s.losers
	s.losers = s.losers[:0] // nothing below unifies; safe to reset now

	// Collect the IDs that went stale and re-register them under their
	// new class, so a later merge of the winner still finds them.
	stale := s.staleBuf[:0]
	for _, l := range losers {
		if int(l) >= len(s.idsByLoc) {
			continue
		}
		stale = append(stale, s.idsByLoc[l]...)
		// l is never a representative again; truncate (not nil) so the
		// row's capacity survives into the next pooled solve.
		s.idsByLoc[l] = s.idsByLoc[l][:0]
	}
	for _, id := range stale {
		c := s.ls.Find(s.in.Atom(id).Loc)
		for int(c) >= len(s.idsByLoc) {
			s.idsByLoc = append(s.idsByLoc, nil)
		}
		s.idsByLoc[c] = append(s.idsByLoc[c], id)
	}

	s.forInodes(func(i int32) {
		// Gate state compares by stored value: right sets hold
		// canonical location indices, so absorbed ones must be
		// remapped; left atoms stay as-is (the re-exam below and the
		// arrival rules both resolve them through Find).
		touched := false
		for _, id := range stale {
			if s.left[i].Has(int(id)) {
				touched = true
				break
			}
		}
		for _, l := range losers {
			if s.right[i].Has(int(l)) {
				s.right[i].Remove(int(l))
				s.right[i].Add(int(s.ls.Find(l)))
				touched = true
			}
		}
		if !touched {
			return
		}
		// The merge may newly unlock buffered left atoms of this gate.
		out := s.g.inter[i].Out
		s.scratch = s.left[i].AppendMembers(s.scratch[:0])
		for _, id := range s.scratch {
			if s.right[i].Has(int(s.ls.Find(s.in.Atom(effects.ID(id)).Loc))) {
				s.insert(out, effects.ID(id))
			}
		}
	})
	s.staleBuf = stale[:0]
}

// ---------------------------------------------------------------------
// Conditional constraints

// forTriggerVars calls f for each effect variable a trigger observes.
func forTriggerVars(t effects.Trigger, f func(v effects.Var)) {
	switch t := t.(type) {
	case effects.LocIn:
		f(t.V)
	case effects.AtomIn:
		f(t.V)
	case effects.KindIn:
		f(t.V)
	case effects.PairIn:
		f(t.VA)
		if t.VA != t.VB {
			f(t.VB)
		}
	}
}

// checkTriggersFor tests unfired conditionals that could be enabled
// by the atom arriving in v.
func (s *solver) checkTriggersFor(v effects.Var, id effects.ID) {
	ws := s.watch[v]
	if len(ws) == 0 {
		return
	}
	a := s.in.Atom(id)
	for _, ci := range ws {
		if !s.pending[ci] {
			continue
		}
		if s.triggerMatches(s.conds[ci].Trigger, v, a) {
			s.fire(int(ci))
		}
	}
}

// recheckConds re-tests unfired conditionals against the full current
// solution (needed after unifications, which can make triggers true
// without any new atom arriving). Creation order keeps firing — and
// hence diagnostics — deterministic.
func (s *solver) recheckConds() {
	for ci := range s.conds {
		if !s.pending[ci] {
			continue
		}
		if s.triggerHolds(s.conds[ci].Trigger) {
			s.fire(ci)
		}
	}
}

func (s *solver) triggerMatches(t effects.Trigger, v effects.Var, a effects.Atom) bool {
	switch t := t.(type) {
	case effects.LocIn:
		return t.V == v && s.ls.Find(t.Loc) == s.ls.Find(a.Loc)
	case effects.AtomIn:
		return t.V == v && t.Kind == a.Kind && s.ls.Find(t.Loc) == s.ls.Find(a.Loc)
	case effects.KindIn:
		return t.V == v && t.Kind == a.Kind
	case effects.PairIn:
		if t.VA == v && a.Kind == t.KindA {
			return s.hasKindLoc(t.VB, t.KindB, a.Loc)
		}
		if t.VB == v && a.Kind == t.KindB {
			return s.hasKindLoc(t.VA, t.KindA, a.Loc)
		}
		return false
	default:
		return false
	}
}

// triggerHolds tests a trigger against the whole current solution.
func (s *solver) triggerHolds(t effects.Trigger) bool {
	switch t := t.(type) {
	case effects.LocIn:
		rho := s.ls.Find(t.Loc)
		return s.anyAtom(t.V, func(a effects.Atom) bool {
			return s.ls.Find(a.Loc) == rho
		})
	case effects.AtomIn:
		rho := s.ls.Find(t.Loc)
		return s.anyAtom(t.V, func(a effects.Atom) bool {
			return a.Kind == t.Kind && s.ls.Find(a.Loc) == rho
		})
	case effects.KindIn:
		return s.anyAtom(t.V, func(a effects.Atom) bool {
			return a.Kind == t.Kind
		})
	case effects.PairIn:
		return s.anyAtom(t.VA, func(a effects.Atom) bool {
			return a.Kind == t.KindA && s.hasKindLoc(t.VB, t.KindB, a.Loc)
		})
	}
	return false
}

// anyAtom reports whether some atom of v's current solution satisfies
// pred.
func (s *solver) anyAtom(v effects.Var, pred func(effects.Atom) bool) bool {
	found := false
	s.sets[v].ForEach(func(i int) {
		if !found && pred(s.in.Atom(effects.ID(i))) {
			found = true
		}
	})
	return found
}

func (s *solver) hasKindLoc(v effects.Var, k effects.Kind, loc locs.Loc) bool {
	rho := s.ls.Find(loc)
	return s.anyAtom(v, func(a effects.Atom) bool {
		return a.Kind == k && s.ls.Find(a.Loc) == rho
	})
}

// fire runs the actions of cond ci and marks it fired.
func (s *solver) fire(ci int) {
	c := s.conds[ci]
	s.pending[ci] = false
	s.stats.CondFirings++
	s.fired = append(s.fired, c)
	for _, act := range c.Actions {
		switch act := act.(type) {
		case effects.ActUnify:
			s.ls.UnifyObserved(act.A, act.B, s.obsUnify)
		case effects.ActIncl:
			if s.extra == nil {
				s.extra = make([][]target, s.g.nvar)
			}
			s.extra[act.From] = append(s.extra[act.From], target{kind: toVar, idx: int32(act.To)})
			// Snapshot: insert may grow the very set being copied if
			// From is (transitively) reachable from To.
			s.scratch = s.sets[act.From].AppendMembers(s.scratch[:0])
			for _, id := range s.scratch {
				s.insert(act.To, effects.ID(id))
			}
		case effects.ActAddAtom:
			s.insert(act.V, s.internCanon(act.A))
		}
	}
}
