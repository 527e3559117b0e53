// Package plan implements cost-based planning over the path-synopsis
// statistics: compiled xpath.Programs are rewritten so that commuting
// intersection operands evaluate cheapest-first, and exists/count-shaped
// queries are flagged for the synopsis-direct fast path that answers
// them from sidecar statistics alone — no archive decode, no overlay.
//
// Soundness comes from two invariants, pinned by the differential
// harness in this package:
//
//   - Reordering only permutes operands of maximal intersection chains
//     (OpIntersect is commutative and associative over node sets), and
//     re-linearizes the whole program so every operand's defining
//     instruction still precedes its use. The rewritten program computes
//     the same result set on every document.
//   - Estimates order work; they never prove emptiness. A cardinality of
//     zero moves an operand to the front of a chain but every operand is
//     still evaluated. Emptiness proofs come only from the synopsis
//     machinery that is exact by construction (Signature pruning and
//     ChainCount), never from the estimator — so an estimator that
//     underestimates can waste time but cannot lose results.
//
// The planner itself is storage-agnostic: it sees an Estimator (in
// practice synopsis.Index, whose catalog-wide label totals satisfy the
// contract) and a compiled program, and leaves per-document decisions —
// direct answer vs overlay evaluation — to the caller holding the
// per-document synopsis.
package plan

import (
	"fmt"
	"sort"

	"repro/internal/xpath"
)

// Estimator supplies catalog-level cardinality statistics. Implementors
// must never report a "known" count below the true tree-node count of
// any single document the plan will run against (synopsis.Index
// aggregates exact per-document counts, which satisfies this); unknown
// names must answer known=false rather than a fabricated zero.
type Estimator interface {
	// LabelCount returns the tree-node occurrence count of a node-set
	// relation by its skeleton name ("tag:..."). known=false means the
	// estimator carries no information about the name — such operands
	// sort after every known one.
	LabelCount(name string) (count uint64, known bool)
	// TreeSize returns the total tree-node count, the cost ceiling used
	// for operands that select everything.
	TreeSize() uint64
}

// Plan is the outcome of planning one program.
type Plan struct {
	// Prog is the program to evaluate: the reordered rewrite when the
	// planner changed anything, otherwise the original.
	Prog *xpath.Program
	// Reordered reports whether Prog differs from the original.
	Reordered bool
	// Chain, copied from the program, marks the query answerable from
	// per-document synopsis statistics (see xpath.ChainShape). The
	// caller decides per document: an exact ChainCount answers directly,
	// anything else falls back to evaluating Prog.
	Chain *xpath.ChainShape
}

// Build plans one compiled program against the estimator. A nil
// estimator disables reordering but keeps the chain classification.
func Build(prog *xpath.Program, est Estimator) *Plan {
	pl := &Plan{Prog: prog, Chain: prog.Chain}
	if est != nil {
		if rew, changed := reorder(prog, est); changed {
			pl.Prog = rew
			pl.Reordered = true
		}
	}
	return pl
}

// CacheKey returns an injective key for a (query, dictionary version,
// index generation) triple: plans depend on the estimator's statistics,
// so a cache entry is valid only while both the label dictionary and the
// synopsis index are unchanged. The query text is length-prefixed, so no
// crafted query can collide with another triple.
func CacheKey(query string, dictVer, gen uint64) string {
	return fmt.Sprintf("%d:%s:%d:%d", len(query), query, dictVer, gen)
}

// reorder rewrites the program so every maximal OpIntersect chain
// evaluates its operands cheapest-first. The chain's operand subtrees
// (and everything else) are re-emitted in dependency order with fresh
// temporaries: in-place operand swaps would be unsound, because a
// predicate subtree's instructions are emitted after the step's first
// intersection and moving it earlier in the chain would read a
// temporary before its definition.
func reorder(p *xpath.Program, est Estimator) (*xpath.Program, bool) {
	def := make([]int, p.NumTemp)
	uses := make([]int, p.NumTemp)
	for i := range def {
		def[i] = -1
	}
	for i, in := range p.Instrs {
		def[in.Dst] = i
		for _, o := range in.Operands() {
			uses[o]++
		}
	}

	out := make([]xpath.Instr, 0, len(p.Instrs))
	newTemp := make([]int, p.NumTemp)
	for i := range newTemp {
		newTemp[i] = -1
	}
	changed := false
	emit := func(in xpath.Instr) int {
		in.Dst = len(out)
		out = append(out, in)
		return in.Dst
	}
	var emitTemp func(t int) int
	emitTemp = func(t int) int {
		if newTemp[t] >= 0 {
			return newTemp[t]
		}
		in := p.Instrs[def[t]]
		if in.Op == xpath.OpIntersect {
			leaves := chainLeaves(p, def, uses, t)
			order := sortByCost(p, def, leaves, est)
			if !equalInts(order, leaves) {
				changed = true
			}
			cur := emitTemp(order[0])
			for _, l := range order[1:] {
				lt := emitTemp(l)
				cur = emit(xpath.Instr{Op: xpath.OpIntersect, A: cur, B: lt})
			}
			newTemp[t] = cur
			return cur
		}
		switch len(in.Operands()) {
		case 1:
			in.A = emitTemp(in.A)
		case 2:
			in.A = emitTemp(in.A)
			in.B = emitTemp(in.B)
		}
		nt := emit(in)
		newTemp[t] = nt
		return nt
	}
	res := emitTemp(p.Result)
	if !changed {
		return p, false
	}
	rew := &xpath.Program{
		Instrs:  out,
		Result:  res,
		NumTemp: len(out),
		Tags:    p.Tags,
		Strings: p.Strings,
		Sig:     p.Sig,
		Chain:   p.Chain,
		Carry:   xpath.CarrySets(out, res),
	}
	for _, in := range out {
		if in.Op == xpath.OpAxis && !in.Axis.Upward() {
			rew.Downward = true
			break
		}
	}
	return rew, true
}

// chainLeaves returns the operand temporaries of the maximal
// intersection chain rooted at temporary t, in syntactic (left-to-right)
// order. An operand is folded into the chain only when it is itself an
// OpIntersect used nowhere else; a shared intermediate stays a single
// leaf so its value is still computed once.
func chainLeaves(p *xpath.Program, def, uses []int, t int) []int {
	in := p.Instrs[def[t]]
	if in.Op != xpath.OpIntersect {
		return []int{t}
	}
	var leaves []int
	for _, o := range []int{in.A, in.B} {
		if p.Instrs[def[o]].Op == xpath.OpIntersect && uses[o] == 1 {
			leaves = append(leaves, chainLeaves(p, def, uses, o)...)
		} else {
			leaves = append(leaves, o)
		}
	}
	return leaves
}

// sortByCost orders chain leaves by estimated cardinality, cheapest
// first; leaves the estimator knows nothing about keep their relative
// syntactic order at the end. The sort is stable, so an estimator with
// no information yields the identity order and reorder reports no
// change.
func sortByCost(p *xpath.Program, def []int, leaves []int, est Estimator) []int {
	type costed struct {
		t     int
		cost  uint64
		known bool
	}
	cs := make([]costed, len(leaves))
	for i, l := range leaves {
		c := costed{t: l}
		switch in := p.Instrs[def[l]]; in.Op {
		case xpath.OpRoot:
			c.cost, c.known = 1, true
		case xpath.OpLabel:
			c.cost, c.known = est.LabelCount(in.Name)
		case xpath.OpAll:
			c.cost, c.known = est.TreeSize(), true
		}
		cs[i] = c
	}
	sort.SliceStable(cs, func(i, j int) bool {
		if cs[i].known != cs[j].known {
			return cs[i].known
		}
		return cs[i].known && cs[i].cost < cs[j].cost
	})
	order := make([]int, len(cs))
	for i, c := range cs {
		order[i] = c.t
	}
	return order
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ChainPermutations returns, for verification harnesses, one rewritten
// program per non-identity permutation of each intersection chain in
// prog — each permutation applied to a single chain with every other
// chain left in syntactic order. Chains longer than 5 leaves are
// permuted pairwise (adjacent transpositions) instead of exhaustively to
// bound the output. Every returned program must evaluate identically to
// prog on every document; the differential tests assert exactly that.
func ChainPermutations(prog *xpath.Program) []*xpath.Program {
	def := make([]int, prog.NumTemp)
	uses := make([]int, prog.NumTemp)
	for i := range def {
		def[i] = -1
	}
	for i, in := range prog.Instrs {
		def[in.Dst] = i
		for _, o := range in.Operands() {
			uses[o]++
		}
	}
	// Maximal chains: intersect temporaries not folded into a larger
	// chain (their single user is not itself a chain-folding intersect).
	inChain := make(map[int]bool)
	var chains [][]int
	for t := prog.NumTemp - 1; t >= 0; t-- {
		if def[t] < 0 || prog.Instrs[def[t]].Op != xpath.OpIntersect || inChain[t] {
			continue
		}
		leaves := chainLeaves(prog, def, uses, t)
		var mark func(u int)
		mark = func(u int) {
			in := prog.Instrs[def[u]]
			if in.Op != xpath.OpIntersect {
				return
			}
			inChain[u] = true
			for _, o := range []int{in.A, in.B} {
				if prog.Instrs[def[o]].Op == xpath.OpIntersect && uses[o] == 1 {
					mark(o)
				}
			}
		}
		mark(t)
		if len(leaves) >= 2 {
			chains = append(chains, append([]int{t}, leaves...))
		}
	}

	var out []*xpath.Program
	for _, chain := range chains {
		t, leaves := chain[0], chain[1:]
		for _, perm := range permutations(len(leaves)) {
			ordered := make([]int, len(leaves))
			identity := true
			for i, j := range perm {
				ordered[i] = leaves[j]
				if i != j {
					identity = false
				}
			}
			if identity {
				continue
			}
			out = append(out, rebuildWithOrder(prog, def, uses, t, ordered))
		}
	}
	return out
}

// permutations enumerates orders of n elements: all n! for n <= 5,
// adjacent transpositions beyond.
func permutations(n int) [][]int {
	if n > 5 {
		var out [][]int
		for i := 0; i+1 < n; i++ {
			p := make([]int, n)
			for j := range p {
				p[j] = j
			}
			p[i], p[i+1] = p[i+1], p[i]
			out = append(out, p)
		}
		return out
	}
	var out [][]int
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	var heap func(k int)
	heap = func(k int) {
		if k == 1 {
			out = append(out, append([]int(nil), p...))
			return
		}
		for i := 0; i < k; i++ {
			heap(k - 1)
			if k%2 == 0 {
				p[i], p[k-1] = p[k-1], p[i]
			} else {
				p[0], p[k-1] = p[k-1], p[0]
			}
		}
	}
	heap(n)
	return out
}

// rebuildWithOrder re-linearizes prog with the chain at temporary t
// forced to the given leaf order — the same emission machinery as
// reorder, minus the cost model.
func rebuildWithOrder(p *xpath.Program, def, uses []int, chain int, order []int) *xpath.Program {
	out := make([]xpath.Instr, 0, len(p.Instrs))
	newTemp := make([]int, p.NumTemp)
	for i := range newTemp {
		newTemp[i] = -1
	}
	emit := func(in xpath.Instr) int {
		in.Dst = len(out)
		out = append(out, in)
		return in.Dst
	}
	var emitTemp func(t int) int
	emitTemp = func(t int) int {
		if newTemp[t] >= 0 {
			return newTemp[t]
		}
		in := p.Instrs[def[t]]
		if in.Op == xpath.OpIntersect {
			leaves := chainLeaves(p, def, uses, t)
			if t == chain {
				leaves = order
			}
			cur := emitTemp(leaves[0])
			for _, l := range leaves[1:] {
				lt := emitTemp(l)
				cur = emit(xpath.Instr{Op: xpath.OpIntersect, A: cur, B: lt})
			}
			newTemp[t] = cur
			return cur
		}
		switch len(in.Operands()) {
		case 1:
			in.A = emitTemp(in.A)
		case 2:
			in.A = emitTemp(in.A)
			in.B = emitTemp(in.B)
		}
		nt := emit(in)
		newTemp[t] = nt
		return nt
	}
	res := emitTemp(p.Result)
	return &xpath.Program{
		Instrs:   out,
		Result:   res,
		NumTemp:  len(out),
		Tags:     p.Tags,
		Strings:  p.Strings,
		Downward: p.Downward,
		Sig:      p.Sig,
		Chain:    p.Chain,
		Carry:    xpath.CarrySets(out, res),
	}
}
