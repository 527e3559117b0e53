package algebra_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/algebra"
	"repro/internal/baseline"
	"repro/internal/dag"
	"repro/internal/dagtest"
	"repro/internal/engine"
	"repro/internal/enginetest"
	"repro/internal/label"
	"repro/internal/skeleton"
	"repro/internal/xpath"
)

// treeOf unrolls an instance built by dagtest into the baseline
// evaluator's document tree: node 0 is the instance root, nodes follow
// in preorder, and each node's tag is its "tag:" relation.
func treeOf(in *dag.Instance) *baseline.Tree {
	t := &baseline.Tree{}
	var walk func(v dag.VertexID, parent int32)
	walk = func(v dag.VertexID, parent int32) {
		id := int32(len(t.Tag))
		tag := ""
		for _, l := range in.Verts[v].Labels.Members() {
			if name := in.Schema.Name(l); strings.HasPrefix(name, "tag:") {
				tag = strings.TrimPrefix(name, "tag:")
			}
		}
		t.Tag = append(t.Tag, tag)
		t.Parent = append(t.Parent, parent)
		t.Children = append(t.Children, nil)
		if parent >= 0 {
			t.Children[parent] = append(t.Children[parent], id)
		}
		for _, e := range in.Verts[v].Edges {
			for k := uint32(0); k < e.Count; k++ {
				walk(e.Child, id)
			}
		}
	}
	if len(in.Verts) > 0 {
		walk(in.Root, -1)
	}
	return t
}

// program is a hand-built operator sequence selecting register result.
func program(result int, instrs ...xpath.Instr) *xpath.Program {
	n := 0
	for _, in := range instrs {
		if in.Dst >= n {
			n = in.Dst + 1
		}
	}
	return &xpath.Program{Instrs: instrs, Result: result, NumTemp: n}
}

func tagOp(tag string, dst int) xpath.Instr {
	return xpath.Instr{Op: xpath.OpLabel, Name: skeleton.TagLabel(tag), Dst: dst}
}

func axisOp(axis algebra.Axis, src, dst int) xpath.Instr {
	return xpath.Instr{Op: xpath.OpAxis, Axis: axis, A: src, Dst: dst}
}

// check evaluates prog on the compressed instance in, which represents
// tree — engine.RunFrozen applies one Ov* operator per instruction — and
// checks the result against the baseline evaluation of the same program
// (enginetest.Check).
func check(t *testing.T, ctx string, in *dag.Instance, tree *baseline.Tree, prog *xpath.Program) *engine.Result {
	t.Helper()
	res, err := engine.RunFrozen(dag.Freeze(in), prog)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := baseline.Eval(tree, prog)
	if err != nil {
		t.Fatal(err)
	}
	enginetest.Check(t, ctx, in, res, tree, sel, enginetest.DecompressingSteps(prog), 1<<10)
	return res
}

// checkTerm is check on the compressed instance of a dagtest term.
func checkTerm(t *testing.T, term string, prog *xpath.Program) *engine.Result {
	t.Helper()
	return check(t, term, dagtest.CompressedFromTerm(term), treeOf(dagtest.FromTerm(term)), prog)
}

// treeCount applies the axis to a tag's vertices on a compressed instance
// and returns how many tree nodes the new selection covers.
func treeCount(t *testing.T, term, tag string, axis algebra.Axis) uint64 {
	t.Helper()
	return checkTerm(t, term, program(1, tagOp(tag, 0), axisOp(axis, 0, 1))).SelectedTree
}

func TestChildAxis(t *testing.T) {
	// children of the two 'b' nodes: c,c,d and c.
	if got := treeCount(t, "a(b(c,c,d),b(c),d)", "b", algebra.Child); got != 4 {
		t.Fatalf("child count = %d, want 4", got)
	}
}

func TestParentAxis(t *testing.T) {
	// parents of c nodes: the two b's.
	if got := treeCount(t, "a(b(c,c,d),b(c),d)", "c", algebra.Parent); got != 2 {
		t.Fatalf("parent count = %d, want 2", got)
	}
}

func TestDescendantAxis(t *testing.T) {
	// descendants of a: everything below the root = 7 nodes.
	if got := treeCount(t, "a(b(c,c,d),b(c),d)", "a", algebra.Descendant); got != 7 {
		t.Fatalf("descendant count = %d, want 7", got)
	}
	// descendants of b: c,c,d,c = 4.
	if got := treeCount(t, "a(b(c,c,d),b(c),d)", "b", algebra.Descendant); got != 4 {
		t.Fatalf("descendant-of-b count = %d, want 4", got)
	}
}

func TestDescendantOrSelfAxis(t *testing.T) {
	if got := treeCount(t, "a(b(c,c,d),b(c),d)", "b", algebra.DescendantOrSelf); got != 6 {
		t.Fatalf("dos count = %d, want 6", got)
	}
}

func TestAncestorAxis(t *testing.T) {
	// ancestors of c: the two b's and a.
	if got := treeCount(t, "a(b(c,c,d),b(c),d)", "c", algebra.Ancestor); got != 3 {
		t.Fatalf("ancestor count = %d, want 3", got)
	}
}

func TestAncestorOrSelfAxis(t *testing.T) {
	if got := treeCount(t, "a(b(c,c,d),b(c),d)", "c", algebra.AncestorOrSelf); got != 6 {
		t.Fatalf("aos count = %d, want 6", got)
	}
}

func TestSelfAxis(t *testing.T) {
	if got := treeCount(t, "a(b(c,c,d),b(c),d)", "c", algebra.Self); got != 3 {
		t.Fatalf("self count = %d, want 3", got)
	}
}

func TestFollowingSiblingAxis(t *testing.T) {
	// siblings after the first c in each b: under b1 (c,c,d): c,d;
	// under b2 (c): none. Also top level: after b1: b2,d; after b2: d —
	// but src is c, so only within the b's.
	if got := treeCount(t, "a(b(c,c,d),b(c),d)", "c", algebra.FollowingSibling); got != 2 {
		t.Fatalf("following-sibling count = %d, want 2", got)
	}
}

func TestFollowingSiblingSplitsRuns(t *testing.T) {
	// a(c,c,c): following-sibling(c) = the 2nd and 3rd c. The compressed
	// instance has one c vertex with multiplicity 3; the run must split.
	if n := dagtest.CompressedFromTerm("a(c,c,c)").NumVertices(); n != 2 {
		t.Fatalf("setup: vertices = %d", n)
	}
	res := checkTerm(t, "a(c,c,c)", program(1, tagOp("c", 0), axisOp(algebra.FollowingSibling, 0, 1)))
	if res.SelectedTree != 2 {
		t.Fatalf("selected = %d, want 2", res.SelectedTree)
	}
	if res.SelectedDAG != 1 {
		t.Fatalf("selected DAG vertices = %d, want 1 (split run, shared tail)", res.SelectedDAG)
	}
}

func TestPrecedingSiblingAxis(t *testing.T) {
	// preceding siblings of {c1,c2,c3}: c1,c2 selected.
	if got := treeCount(t, "a(c,c,c)", "c", algebra.PrecedingSibling); got != 2 {
		t.Fatalf("selected = %d, want 2", got)
	}
}

func TestFollowingAxis(t *testing.T) {
	// following(b1): nodes strictly after b1 in document order, minus
	// ancestors: b2, its c, and d = 3... term a(b(c),b(c),d): following
	// of first b = {b2, c(under b2), d} = 3; following of second b = {d}.
	// src selects BOTH b's, so following(S) = union = {b2, c2, d} = 3.
	if got := treeCount(t, "a(b(c),b(c),d)", "b", algebra.Following); got != 3 {
		t.Fatalf("following count = %d, want 3", got)
	}
}

func TestPrecedingAxis(t *testing.T) {
	// preceding(d) with d last: everything before it except ancestors:
	// b,c,b,c = 4.
	if got := treeCount(t, "a(b(c),b(c),d)", "d", algebra.Preceding); got != 4 {
		t.Fatalf("preceding count = %d, want 4", got)
	}
}

func TestSetOps(t *testing.T) {
	instrs := []xpath.Instr{
		tagOp("b", 0),
		tagOp("c", 1),
		{Op: xpath.OpUnion, A: 0, B: 1, Dst: 2},
		{Op: xpath.OpIntersect, A: 0, B: 1, Dst: 3},
		{Op: xpath.OpDiff, A: 2, B: 0, Dst: 4},
		{Op: xpath.OpComplement, A: 0, Dst: 5},
	}
	for _, c := range []struct {
		name   string
		result int
		want   uint64
	}{
		{"union", 2, 3},
		{"intersect", 3, 0},
		{"difference", 4, 1},
		{"complement", 5, 2}, // a and c
	} {
		if got := checkTerm(t, "a(b,c,b)", program(c.result, instrs...)).SelectedTree; got != c.want {
			t.Fatalf("%s = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRootFilter(t *testing.T) {
	instrs := []xpath.Instr{
		tagOp("a", 0),
		tagOp("b", 1),
		{Op: xpath.OpRootFilter, A: 0, Dst: 2},
		{Op: xpath.OpRootFilter, A: 1, Dst: 3},
	}
	if got := checkTerm(t, "a(b)", program(2, instrs...)).SelectedTree; got != 2 {
		t.Fatalf("root filter (root selected) = %d, want all 2", got)
	}
	if got := checkTerm(t, "a(b)", program(3, instrs...)).SelectedTree; got != 0 {
		t.Fatalf("root filter (root unselected) = %d, want 0", got)
	}
}

func TestAddAllAddRoot(t *testing.T) {
	instrs := []xpath.Instr{{Op: xpath.OpAll, Dst: 0}, {Op: xpath.OpRoot, Dst: 1}}
	if got := checkTerm(t, "a(b,b)", program(0, instrs...)).SelectedTree; got != 3 {
		t.Fatalf("all = %d", got)
	}
	root := checkTerm(t, "a(b,b)", program(1, instrs...))
	if root.SelectedTree != 1 {
		t.Fatalf("root = %d", root.SelectedTree)
	}
	if paths := root.View.Paths(10); !reflect.DeepEqual(paths, []string{""}) {
		t.Fatalf("root selection at %q, want the root", paths)
	}
}

// TestClearLabel: clearing a register (the overlay's counterpart of
// dropping a relation) empties it without touching the others.
func TestClearLabel(t *testing.T) {
	f := dag.Freeze(dagtest.CompressedFromTerm("a(b)"))
	ov := dag.AcquireOverlay(f)
	defer ov.Release()
	ov.EnsureCols(2)
	algebra.OvLabel(ov, skeleton.TagLabel("b"), 0)
	algebra.OvLabel(ov, skeleton.TagLabel("a"), 1)
	ov.ZeroCol(0)
	if got := ov.Col(0).Count(); got != 0 {
		t.Fatalf("cleared register still selects %d", got)
	}
	if got := ov.Col(1).Count(); got != 1 {
		t.Fatalf("other register selects %d, want 1", got)
	}
}

// randomCase returns a compressed random tree, its baseline tree and one
// of its tags.
func randomCase(r *rand.Rand, maxNodes int) (*dag.Instance, *baseline.Tree, string) {
	tree := dagtest.RandomTree(r, maxNodes, 4, 3)
	tag := tree.Schema.Name(label.ID(r.Intn(tree.Schema.Len())))
	return dag.Compress(tree.Clone()), treeOf(tree), strings.TrimPrefix(tag, "tag:")
}

// TestUpwardNoDecompression is Corollary 3.7's precondition: upward axes
// and set operations never change the DAG (enginetest.Check asserts it
// for a program without decompressing steps).
func TestUpwardNoDecompression(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in, tree, tag := randomCase(r, 60)
		instrs := []xpath.Instr{tagOp(tag, 0)}
		for i, ax := range []algebra.Axis{algebra.Self, algebra.Parent, algebra.Ancestor, algebra.AncestorOrSelf} {
			instrs = append(instrs, axisOp(ax, i, i+1))
		}
		instrs = append(instrs, xpath.Instr{Op: xpath.OpComplement, A: 4, Dst: 5},
			xpath.Instr{Op: xpath.OpUnion, A: 5, B: 1, Dst: 6})
		for result := 1; result <= 6; result++ {
			check(t, "upward chain", in, tree, program(result, instrs...))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestDoublingBound checks Propositions 3.2/3.4: one axis application at
// most doubles vertices and edges, and leaves the document unchanged
// (enginetest.Check asserts both for a one-step program).
func TestDoublingBound(t *testing.T) {
	axes := []algebra.Axis{
		algebra.Child, algebra.Descendant, algebra.DescendantOrSelf,
		algebra.FollowingSibling, algebra.PrecedingSibling,
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in, tree, tag := randomCase(r, 80)
		for _, ax := range axes {
			check(t, ax.String(), in, tree, program(1, tagOp(tag, 0), axisOp(ax, 0, 1)))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAxisInverseRoundTrip(t *testing.T) {
	for a := algebra.Self; a <= algebra.Preceding; a++ {
		if a.Inverse().Inverse() != a {
			t.Errorf("%v: double inverse mismatch", a)
		}
	}
}

func TestEmptyInstance(t *testing.T) {
	instrs := []xpath.Instr{tagOp("a", 0)}
	for i, ax := range []algebra.Axis{algebra.Child, algebra.Parent, algebra.Descendant, algebra.FollowingSibling, algebra.Following} {
		instrs = append(instrs, axisOp(ax, i, i+1))
	}
	for result := 1; result < len(instrs); result++ {
		res := check(t, "empty", dag.New(), &baseline.Tree{}, program(result, instrs...))
		if res.VertsAfter != 0 {
			t.Fatalf("axis chain on empty instance produced %d vertices", res.VertsAfter)
		}
	}
}
