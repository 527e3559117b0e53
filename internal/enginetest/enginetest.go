// Package enginetest is the test oracle for overlay evaluation
// (dag.Freeze + engine.RunFrozen): it checks a result against the
// uncompressed evaluator of internal/baseline, which shares no
// evaluation code with the engine, and against the structural claims of
// Section 3 — the materialized result still represents the input
// document, upward-only programs never decompress (Corollary 3.7), and
// each decompressing step at most doubles the instance (Propositions 3.2
// and 3.4). The engine, algebra, core and experiments suites share it.
package enginetest

import (
	"reflect"
	"testing"

	"repro/internal/algebra"
	"repro/internal/baseline"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/label"
	"repro/internal/xpath"
)

// Run freezes in, evaluates prog on it with engine.RunFrozen, and checks
// the result (see Check) against the baseline evaluation of prog on doc,
// the XML in was built from, comparing up to max result paths. in must
// not be mutated afterwards: Freeze packs its edge lists in place.
func Run(t testing.TB, ctx string, doc []byte, in *dag.Instance, prog *xpath.Program, max int) *engine.Result {
	t.Helper()
	tree, err := baseline.Build(doc, prog.Strings)
	if err != nil {
		t.Fatalf("%s: baseline build: %v", ctx, err)
	}
	sel, err := baseline.Eval(tree, prog)
	if err != nil {
		t.Fatalf("%s: baseline eval: %v", ctx, err)
	}
	res, err := engine.RunFrozen(dag.Freeze(in), prog)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	Check(t, ctx, in, res, tree, sel, DecompressingSteps(prog), max)
	return res
}

// Check verifies an overlay result res, computed on instance in by a
// program with the given number of decompressing steps, against the
// baseline selection sel over tree:
//
//   - SelectedTree equals the baseline count, and the view's first max
//     paths equal the baseline's;
//   - the materialized result passes Validate, selects as many vertices
//     and tree nodes as the view and yields the same paths, and with the
//     result relation dropped is equivalent to in;
//   - VertsAfter >= VertsBefore; a program without decompressing steps
//     leaves the vertex and edge counts unchanged, and one with k such
//     steps at most multiplies each by 2^k.
func Check(t testing.TB, ctx string, in *dag.Instance, res *engine.Result, tree *baseline.Tree, sel []bool, steps, max int) {
	t.Helper()
	if want := uint64(baseline.Count(sel)); res.SelectedTree != want {
		t.Fatalf("%s: selected %d tree nodes, baseline %d", ctx, res.SelectedTree, want)
	}
	want := baseline.Paths(tree, sel, max)
	if got := res.View.Paths(max); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: paths diverge from the baseline:\nview:     %v\nbaseline: %v", ctx, got, want)
	}

	mat, lbl := res.Materialize()
	if err := mat.Validate(); err != nil {
		t.Fatalf("%s: materialized result invalid: %v", ctx, err)
	}
	if got := mat.CountSelected(lbl); got != res.SelectedDAG {
		t.Fatalf("%s: materialized selection %d vertices, view %d", ctx, got, res.SelectedDAG)
	}
	if got := mat.CountSelectedTree(lbl); got != res.SelectedTree {
		t.Fatalf("%s: materialized selection %d tree nodes, view %d", ctx, got, res.SelectedTree)
	}
	if got := dag.SelectedPaths(mat, lbl, max); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: materialized paths diverge:\nmaterialized: %v\nbaseline:     %v", ctx, got, want)
	}
	if !dag.Equivalent(withoutResult(mat), withoutResult(in)) {
		t.Fatalf("%s: the materialized result no longer represents the input document", ctx)
	}

	if res.VertsAfter < res.VertsBefore {
		t.Fatalf("%s: instance shrank %d -> %d vertices", ctx, res.VertsBefore, res.VertsAfter)
	}
	if steps == 0 && (res.VertsAfter != res.VertsBefore || res.EdgesAfter != res.EdgesBefore) {
		t.Fatalf("%s: upward-only program grew the instance %d/%d -> %d/%d",
			ctx, res.VertsBefore, res.EdgesBefore, res.VertsAfter, res.EdgesAfter)
	}
	if steps < 32 && (res.VertsAfter > res.VertsBefore<<steps || res.EdgesAfter > res.EdgesBefore<<steps) {
		t.Fatalf("%s: %d decompressing steps grew the instance %d/%d -> %d/%d, beyond doubling per step",
			ctx, steps, res.VertsBefore, res.EdgesBefore, res.VertsAfter, res.EdgesAfter)
	}
}

// Same fails unless got reports what want does: the selection counts,
// the sizes before and after, and the first max result paths — how the
// fan-out tests compare a parallel evaluation with a sequential one.
func Same(t testing.TB, ctx string, got, want *engine.Result, max int) {
	t.Helper()
	if got.SelectedDAG != want.SelectedDAG || got.SelectedTree != want.SelectedTree ||
		got.VertsBefore != want.VertsBefore || got.EdgesBefore != want.EdgesBefore ||
		got.VertsAfter != want.VertsAfter || got.EdgesAfter != want.EdgesAfter {
		t.Fatalf("%s: selected %d/%d, sizes %d/%d -> %d/%d; want %d/%d, %d/%d -> %d/%d", ctx,
			got.SelectedDAG, got.SelectedTree, got.VertsBefore, got.EdgesBefore, got.VertsAfter, got.EdgesAfter,
			want.SelectedDAG, want.SelectedTree, want.VertsBefore, want.EdgesBefore, want.VertsAfter, want.EdgesAfter)
	}
	if g, w := got.View.Paths(max), want.View.Paths(max); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: paths %v, want %v", ctx, g, w)
	}
}

// withoutResult drops the materialized-result relation, if in has one.
func withoutResult(in *dag.Instance) *dag.Instance {
	rid := in.Schema.Lookup(dag.ResultLabelName)
	keep := make([]label.ID, 0, in.Schema.Len())
	for id := label.ID(0); int(id) < in.Schema.Len(); id++ {
		if id != rid {
			keep = append(keep, id)
		}
	}
	return in.Reduct(keep)
}

// DecompressingSteps counts the axis applications of prog that may split
// vertices: one per downward or sibling step, two per following or
// preceding step (each composes a sibling and a descendant-or-self step
// around an upward one, Section 3.2).
func DecompressingSteps(prog *xpath.Program) int {
	steps := 0
	for _, in := range prog.Instrs {
		if in.Op != xpath.OpAxis || in.Axis.Upward() {
			continue
		}
		switch in.Axis {
		case algebra.Following, algebra.Preceding:
			steps += 2
		default:
			steps++
		}
	}
	return steps
}
