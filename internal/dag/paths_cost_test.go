package dag_test

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dag"
	"repro/internal/skeleton"
)

// viewOf detaches a result view selecting exactly v.
func viewOf(f *dag.Frozen, v dag.VertexID) *dag.ResultView {
	ov := dag.AcquireOverlay(f)
	defer ov.Release()
	ov.EnsureCols(1)
	ov.Col(0).Set(v)
	return ov.Detach(0)
}

// bytesPerRun reports the heap bytes one call of fn allocates, averaged
// over runs.
func bytesPerRun(runs int, fn func()) float64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestPathDecodingCost is the cost bound of result-path decoding on the
// corpus that barely compresses (TreeBank): decoding reads only the part
// of the graph the answer needs and allocates in proportion to it, never
// an array over all vertices. A root-only selection reads no edge list
// at all; a single deep node first in document order reads at most two
// edge lists per level above it (the check that finds it, then the walk
// that emits it).
func TestPathDecodingCost(t *testing.T) {
	c, err := corpus.ByName("TreeBank")
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := skeleton.BuildCompressed(c.Generate(c.DefaultScale/5, 1), skeleton.Options{Mode: skeleton.TagsAll})
	if err != nil {
		t.Fatal(err)
	}
	f := dag.Freeze(in)
	n := f.NumVertices()

	root := viewOf(f, in.Root)
	paths, reads := root.PathsCountingEdges(100)
	if !reflect.DeepEqual(paths, []string{""}) || reads != 0 {
		t.Errorf("root-only selection: paths %q after %d edge-list reads, want [\"\"] after 0", paths, reads)
	}
	if a := testing.AllocsPerRun(20, func() { root.Paths(100) }); a > 2 {
		t.Errorf("root-only selection allocates %.0f/op, want <= 2", a)
	}

	// The deepest vertex on the first-child chain that still occurs
	// once in the tree: the walk finds it first and then stops.
	pc := f.PathCounts()
	deep, depth := in.Root, 0
	for {
		edges := in.Verts[deep].Edges
		if len(edges) == 0 || pc[edges[0].Child] != 1 {
			break
		}
		deep, depth = edges[0].Child, depth+1
	}
	if depth < 4 {
		t.Fatalf("first-child chain only %d deep; the corpus changed shape", depth)
	}
	view := viewOf(f, deep)
	paths, reads = view.PathsCountingEdges(100)
	if want := strings.TrimSuffix(strings.Repeat("1.", depth), "."); !reflect.DeepEqual(paths, []string{want}) {
		t.Fatalf("deep selection paths %q, want [%q]", paths, want)
	}
	if reads > 2*depth {
		t.Errorf("deep selection read %d edge lists, want <= %d (two per level)", reads, 2*depth)
	}
	if a := testing.AllocsPerRun(20, func() { view.Paths(100) }); a > 12 {
		t.Errorf("deep selection allocates %.0f/op, want <= 12", a)
	}
	// The memo is two bitsets, n/4 bytes; the old decoder's per-vertex
	// int32 arrays alone were 4n and more.
	if b := bytesPerRun(20, func() { view.Paths(100) }); b >= float64(n) {
		t.Errorf("deep selection allocates %.0f bytes/op over %d vertices, want < %d", b, n, n)
	}
	t.Logf("%d vertices; deep selection at depth %d: %d edge-list reads", n, depth, reads)
}
