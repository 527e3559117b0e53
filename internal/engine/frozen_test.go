package engine_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/corpus"
	"repro/internal/dag"
	"repro/internal/dagtest"
	"repro/internal/engine"
	"repro/internal/skeleton"
	"repro/internal/xpath"
)

// buildFor distils a compressed instance over exactly prog's schema.
func buildFor(t *testing.T, doc []byte, prog *xpath.Program) *dag.Instance {
	t.Helper()
	inst, _, err := skeleton.BuildCompressed(doc, skeleton.Options{
		Mode: skeleton.TagsListed, Tags: prog.Tags, Strings: prog.Strings,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// compareCloneOverlay runs prog both ways on inst and fails on any
// divergence: the Figure 7 statistics, the full result address list, and
// the materialized overlay instance's structural invariants.
func compareCloneOverlay(t *testing.T, inst *dag.Instance, prog *xpath.Program, ctx string) {
	t.Helper()
	f := dag.Freeze(inst)

	clone, err := engine.Run(inst.Clone(), prog)
	if err != nil {
		t.Fatalf("%s: clone run: %v", ctx, err)
	}
	overlay, err := engine.RunFrozen(f, prog)
	if err != nil {
		t.Fatalf("%s: overlay run: %v", ctx, err)
	}

	if clone.SelectedDAG != overlay.SelectedDAG ||
		clone.SelectedTree != overlay.SelectedTree {
		t.Fatalf("%s: selection diverges: clone (%d dag, %d tree) vs overlay (%d dag, %d tree)",
			ctx, clone.SelectedDAG, clone.SelectedTree, overlay.SelectedDAG, overlay.SelectedTree)
	}
	if clone.VertsBefore != overlay.VertsBefore || clone.EdgesBefore != overlay.EdgesBefore ||
		clone.VertsAfter != overlay.VertsAfter || clone.EdgesAfter != overlay.EdgesAfter {
		t.Fatalf("%s: sizes diverge: clone %d/%d -> %d/%d vs overlay %d/%d -> %d/%d",
			ctx, clone.VertsBefore, clone.EdgesBefore, clone.VertsAfter, clone.EdgesAfter,
			overlay.VertsBefore, overlay.EdgesBefore, overlay.VertsAfter, overlay.EdgesAfter)
	}

	const maxPaths = 1 << 20
	clonePaths := dag.SelectedPaths(clone.Instance, clone.Label, maxPaths)
	viewPaths := overlay.View.Paths(maxPaths)
	if !reflect.DeepEqual(clonePaths, viewPaths) {
		t.Fatalf("%s: paths diverge:\nclone:   %v\noverlay: %v", ctx, clonePaths, viewPaths)
	}

	mat, lbl := overlay.Materialize()
	if err := mat.Validate(); err != nil {
		t.Fatalf("%s: materialized overlay result invalid: %v", ctx, err)
	}
	if got := mat.CountSelected(lbl); got != overlay.SelectedDAG {
		t.Fatalf("%s: materialized selection %d, view %d", ctx, got, overlay.SelectedDAG)
	}
	if got := mat.CountSelectedTree(lbl); got != overlay.SelectedTree {
		t.Fatalf("%s: materialized tree selection %d, view %d", ctx, got, overlay.SelectedTree)
	}
	matPaths := dag.SelectedPaths(mat, lbl, maxPaths)
	if !reflect.DeepEqual(clonePaths, matPaths) {
		t.Fatalf("%s: materialized paths diverge:\nclone:        %v\nmaterialized: %v", ctx, clonePaths, matPaths)
	}
}

// TestOverlayGoldenCorpora is the golden overlay-vs-clone equality sweep:
// every corpus × every query, on compressed instances distilled over each
// query's schema.
func TestOverlayGoldenCorpora(t *testing.T) {
	for _, c := range corpus.Catalog() {
		doc := c.Generate(c.DefaultScale/12+2, 7)
		for qi, q := range c.Queries {
			prog, err := xpath.CompileQuery(q)
			if err != nil {
				t.Fatalf("%s Q%d: %v", c.Name, qi+1, err)
			}
			inst := buildFor(t, doc, prog)
			compareCloneOverlay(t, inst, prog, c.Name+" Q"+string(rune('1'+qi)))
		}
	}
}

// TestOverlayGoldenFullTag mirrors the prepared-document serving path:
// full-tag instances (skeleton.TagsAll), tag-only queries.
func TestOverlayGoldenFullTag(t *testing.T) {
	for _, c := range corpus.Catalog() {
		doc := c.Generate(c.DefaultScale/12+2, 11)
		inst, _, err := skeleton.BuildCompressed(doc, skeleton.Options{Mode: skeleton.TagsAll})
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range c.Queries {
			prog, err := xpath.CompileQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(prog.Strings) > 0 {
				continue // string marks are absent from a pure tag instance
			}
			compareCloneOverlay(t, inst, prog, c.Name+" full-tag Q"+string(rune('1'+qi)))
		}
	}
}

// TestOverlayAxes exercises every axis individually on a small document
// with sharing and multiplicity runs.
func TestOverlayAxes(t *testing.T) {
	doc := []byte(`<bib>
<book><title>t</title><author>Abiteboul</author><author>Hull</author><author>Vianu</author></book>
<paper><title>t</title><author>Codd</author></paper>
<paper><title>t</title><author>Vardi</author></paper>
</bib>`)
	queries := []string{
		`/bib`,
		`/bib/book/author`,
		`//author`,
		`//paper/author`,
		`/bib/*`,
		`//*`,
		`/self::*[bib/paper]`,
		`//author[following-sibling::author]`,
		`//author[preceding-sibling::author]`,
		`//paper[preceding-sibling::book]/author`,
		`//title[following::author]`,
		`//author[preceding::book]`,
		`//book[descendant::author]`,
		`//author[ancestor::bib]`,
		`//author[not(following-sibling::author)]`,
		`/bib/book[author and title]`,
		`//paper[author["Codd"] or author["Vardi"]]`,
		`/descendant-or-self::author`,
		`//book/descendant-or-self::*`,
	}
	for _, q := range queries {
		prog, err := xpath.CompileQuery(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		inst := buildFor(t, doc, prog)
		compareCloneOverlay(t, inst, prog, q)
	}
}

// TestOverlayRewriteRegressions pins two failure shapes of rewrites that
// carry only live registers, both first found by the random property
// tests: a downward step after an earlier rewrite (//t0/t2, where the
// columns a rewrite does not carry must come out cleared, not holding
// the stale words of a pooled overlay), and following/preceding steps
// after a rewrite (their scratch columns are never carried). Each query
// runs on a large document first and then on a small one, so the pooled
// overlay's columns arrive holding stale words past the small document's
// vertex count.
func TestOverlayRewriteRegressions(t *testing.T) {
	doc := []byte(`<t0><t1><t2/><t0><t2/><t1/></t0></t1><t2><t0><t2/></t0><t1><t2/></t1></t2>` +
		`<t1><t2/><t0/></t1><t0><t1><t2/></t1><t2/></t0></t0>`)
	var big []byte
	for seed := int64(1); len(big) < 20000; seed++ {
		big = dagtest.RandomXML(rand.New(rand.NewSource(seed)), 4000, 6, 3)
	}
	queries := []string{
		`//t0/t2`,
		`//t0/t1/t2`,
		`//t2/t0/t2`,
		`//t0/t2/following::t1`,
		`//t0/t1/preceding::t2`,
		`//t1/t2[following::t0]`,
		`//t0/t2[preceding::t1]/following::*`,
		`//t1/t0[following-sibling::t1]/t2`,
		`//t2[not(following::t2)]`,
	}
	for _, q := range queries {
		prog, err := xpath.CompileQuery(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		compareCloneOverlay(t, buildFor(t, big, prog), prog, q+" (large)")
		compareCloneOverlay(t, buildFor(t, doc, prog), prog, q)
	}
}

// TestOverlayPropertyRandom cross-checks clone and overlay evaluation on
// random trees and random queries.
func TestOverlayPropertyRandom(t *testing.T) {
	tags := []string{"t0", "t1", "t2"}
	words := []string{"alpha", "beta", "veto"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := dagtest.RandomXML(r, 60, 4, len(tags))
		for i := 0; i < 4; i++ {
			q := dagtest.RandomQuery(r, tags, words)
			prog, err := xpath.CompileQuery(q)
			if err != nil {
				continue
			}
			inst, _, err := skeleton.BuildCompressed(doc, skeleton.Options{
				Mode: skeleton.TagsListed, Tags: prog.Tags, Strings: prog.Strings,
			})
			if err != nil {
				t.Logf("build %q: %v", q, err)
				return false
			}
			compareCloneOverlay(t, inst, prog, q+" on "+string(doc))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
