package dag

import (
	"math"
	"slices"
	"strconv"

	"repro/internal/label"
)

// SelectedPaths enumerates the edge-paths (tree-node addresses, 1-based
// child positions joined with '.') of the nodes selected by relation s, in
// document order, up to max paths. It is the "decode the query result"
// operation the paper describes for translating a selection on a partially
// decompressed instance back to the uncompressed tree. Collecting the
// selected vertices scans the label sets once; the walk itself costs
// what ResultView.Paths does.
func SelectedPaths(in *Instance, s label.ID, max int) []string {
	if len(in.Verts) == 0 || max <= 0 {
		return nil
	}
	return selectedPaths(in.Root, len(in.Verts),
		func(v VertexID) []Edge { return in.Verts[v].Edges },
		in.Select(s), math.MaxUint64, max)
}

// selectedPaths is the traversal behind SelectedPaths and
// ResultView.Paths. It walks the graph below root through the edge
// accessor, depth-first in document order, and emits the address of every
// selected tree node until it has emitted max of them or all tree
// selected ones (tree, when known; math.MaxUint64 otherwise). sel lists
// the selected vertices, ascending; n bounds the vertex IDs.
//
// The walk descends only into subtrees that hold a selected vertex. It
// learns which do lazily, with a depth-first check that stops at the
// first selected descendant and is memoised in two n-bit sets allocated
// on first use. So it reads the edges of the vertices on the emitted
// paths plus those of the subtrees it must rule out on the way, each at
// most once: never more than the reachable graph, and for a root-only
// selection none at all.
func selectedPaths(root VertexID, n int, edges func(VertexID) []Edge, sel []VertexID, tree uint64, max int) []string {
	if len(sel) == 0 {
		return nil
	}
	w := pathWalk{edges: edges, sel: sel, n: n, left: tree, max: max}
	w.walk(root)
	return w.out
}

type pathWalk struct {
	edges func(VertexID) []Edge
	sel   []VertexID
	n     int
	left  uint64 // selected tree nodes not yet emitted
	max   int

	// The hasSel memo: seen marks explored (or selected) vertices, has
	// those whose subtree holds a selected vertex.
	seen, has Bitset
	addr      []byte // address of the current vertex
	out       []string
}

// walk emits the selected nodes of v's subtree; it returns false once
// the walk is done.
func (w *pathWalk) walk(v VertexID) bool {
	if _, ok := slices.BinarySearch(w.sel, v); ok {
		w.out = append(w.out, string(w.addr))
		w.left--
		if len(w.out) >= w.max || w.left == 0 {
			return false
		}
	}
	pos := 1
	for _, e := range w.edges(v) {
		if !w.hasSel(e.Child) {
			pos += int(e.Count)
			continue
		}
		for i := uint32(0); i < e.Count; i++ {
			n := len(w.addr)
			if n > 0 {
				w.addr = append(w.addr, '.')
			}
			w.addr = strconv.AppendInt(w.addr, int64(pos), 10)
			ok := w.walk(e.Child)
			w.addr = w.addr[:n]
			if !ok {
				return false
			}
			pos++
		}
	}
	return true
}

// hasSel reports whether v's subtree (v included) holds a selected
// vertex.
func (w *pathWalk) hasSel(v VertexID) bool {
	if w.seen == nil {
		w.seen = make(Bitset, bitsetWords(w.n))
		w.has = make(Bitset, bitsetWords(w.n))
		for _, s := range w.sel {
			w.seen.Set(s)
			w.has.Set(s)
		}
	}
	if w.seen.Get(v) {
		return w.has.Get(v)
	}
	w.seen.Set(v)
	for _, e := range w.edges(v) {
		if w.hasSel(e.Child) {
			w.has.Set(v)
			return true
		}
	}
	return false
}
