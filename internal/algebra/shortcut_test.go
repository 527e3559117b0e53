package algebra

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/dagtest"
	"repro/internal/skeleton"
)

// fullPass applies axis with the pass ovShortcut stands in for.
func fullPass(ov *dag.Overlay, axis Axis, src, dst int) {
	switch {
	case axis == Self:
		ov.Col(dst).CopyFrom(ov.Col(src))
	case axis.Upward():
		ovUpward(ov, axis, src, dst)
	case axis == FollowingSibling || axis == PrecedingSibling:
		ovSibling(ov, axis, src, dst)
	default:
		ovDownward(ov, axis, src, dst)
	}
}

// Columns of the overlays the shortcut test builds.
const (
	colTag = iota // a tag's label column
	colPre        // the result of an earlier child step
	colSrc        // the source of the step under test
	colDst        // its destination
	numCols
)

// overlayAfter returns an overlay over f after an optional earlier
// child step from a random tag's vertices, which may rewrite the graph,
// with colSrc filled by fill.
func overlayAfter(f *dag.Frozen, tag string, rewrite bool, fill func(ov *dag.Overlay, src dag.Bitset)) *dag.Overlay {
	ov := dag.AcquireOverlay(f)
	ov.EnsureCols(numCols)
	OvLabel(ov, skeleton.TagLabel(tag), colTag)
	if rewrite {
		ovDownward(ov, Child, colTag, colPre)
	}
	fill(ov, ov.Col(colSrc))
	return ov
}

// TestShortcutsEqualFullPass checks every identity-axis shortcut against
// the full pass it skips, on random instances, both on the frozen base
// and after an earlier rewrite: the same selection, and the same graph
// (the full pass must not have split anything either).
func TestShortcutsEqualFullPass(t *testing.T) {
	tags := []string{"t0", "t1", "t2"}
	type shortcut struct {
		name string
		axes []Axis
		fill func(r *rand.Rand, ov *dag.Overlay, src dag.Bitset)
	}
	cases := []shortcut{
		{"empty", []Axis{Self, Parent, Ancestor, AncestorOrSelf, Child, Descendant, DescendantOrSelf, FollowingSibling, PrecedingSibling},
			func(_ *rand.Rand, _ *dag.Overlay, src dag.Bitset) { src.Zero() }},
		{"root", []Axis{Descendant, DescendantOrSelf},
			func(_ *rand.Rand, ov *dag.Overlay, src dag.Bitset) { src.Zero(); src.Set(ov.Root()) }},
		{"root and more", []Axis{Descendant, DescendantOrSelf},
			func(r *rand.Rand, ov *dag.Overlay, src dag.Bitset) {
				src.Zero()
				for _, v := range ov.Order() {
					if r.Intn(3) == 0 {
						src.Set(v)
					}
				}
				src.Set(ov.Root())
			}},
		{"all live", []Axis{Child},
			func(_ *rand.Rand, ov *dag.Overlay, src dag.Bitset) { ov.FillLive(src) }},
	}
	rewrites := 0
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in, _, err := skeleton.BuildCompressed(dagtest.RandomXML(r, 60, 4, len(tags)), skeleton.Options{Mode: skeleton.TagsAll})
		if err != nil {
			t.Log(err)
			return false
		}
		f := dag.Freeze(in)
		tag := tags[r.Intn(len(tags))]
		for _, rewrite := range []bool{false, true} {
			for _, c := range cases {
				for _, axis := range c.axes {
					fillSeed := r.Int63()
					fill := func(ov *dag.Overlay, src dag.Bitset) { c.fill(rand.New(rand.NewSource(fillSeed)), ov, src) }
					short := overlayAfter(f, tag, rewrite, fill)
					full := overlayAfter(f, tag, rewrite, fill)
					if short.Rewritten() {
						rewrites++
					}
					n := short.N()
					verts, edges := short.LiveCounts()
					if !ovShortcut(short, axis, colSrc, colDst) {
						t.Errorf("seed %d: %s %v: shortcut did not apply", seed, c.name, axis)
						return false
					}
					fullPass(full, axis, colSrc, colDst)
					fv, fe := full.LiveCounts()
					ok := true
					if full.N() != n || short.N() != n || fv != verts || fe != edges {
						t.Errorf("seed %d: %s %v (rewrite %v): graph moved: %d vertex IDs -> shortcut %d, full %d; live %d/%d -> full %d/%d",
							seed, c.name, axis, rewrite, n, short.N(), full.N(), verts, edges, fv, fe)
						ok = false
					}
					sd, fd := short.Col(colDst), full.Col(colDst)
					for i := range fd {
						if sd[i] != fd[i] {
							t.Errorf("seed %d: %s %v (rewrite %v): shortcut selection diverges from the full pass", seed, c.name, axis, rewrite)
							ok = false
							break
						}
					}
					short.Release()
					full.Release()
					if !ok {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
	if rewrites == 0 {
		t.Fatal("no earlier step rewrote the graph; the test exercises only the base")
	}
}

// TestShortcutDeclines checks the shortcut leaves every other step to
// the full pass: child of a proper subset, descendant of a set without
// the root, and the sibling axes of a non-empty set.
func TestShortcutDeclines(t *testing.T) {
	in := dagtest.CompressedFromTerm("r(a(c,c),b(c))")
	f := dag.Freeze(in)
	ov := dag.AcquireOverlay(f)
	defer ov.Release()
	ov.EnsureCols(numCols)
	OvLabel(ov, skeleton.TagLabel("a"), colSrc)
	for _, axis := range []Axis{Child, Descendant, DescendantOrSelf, FollowingSibling, PrecedingSibling, Parent} {
		if ovShortcut(ov, axis, colSrc, colDst) {
			t.Errorf("%v of {a} took a shortcut", axis)
		}
	}
	ov.FillLive(ov.Col(colSrc))
	for _, axis := range []Axis{FollowingSibling, PrecedingSibling, Parent, Ancestor} {
		if ovShortcut(ov, axis, colSrc, colDst) {
			t.Errorf("%v of V took a shortcut", axis)
		}
	}
}
