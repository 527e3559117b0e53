package engine_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/corpus"
	"repro/internal/dag"
	"repro/internal/dagtest"
	"repro/internal/enginetest"
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

// allPaths bounds the result paths the golden tests compare with the
// baseline: every one of their documents' results.
const allPaths = 1 << 20

// TestOverlayGoldenCorpora is the golden overlay-vs-baseline sweep: every
// corpus × every query, on compressed instances distilled over each
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
			enginetest.Run(t, c.Name+" Q"+string(rune('1'+qi)), doc, inst, prog, allPaths)
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
			enginetest.Run(t, c.Name+" full-tag Q"+string(rune('1'+qi)), doc, inst, prog, allPaths)
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
		enginetest.Run(t, q, doc, inst, prog, allPaths)
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
		enginetest.Run(t, q+" (large)", big, buildFor(t, big, prog), prog, allPaths)
		enginetest.Run(t, q, doc, buildFor(t, doc, prog), prog, allPaths)
	}
}

// TestOverlayPropertyRandom cross-checks overlay evaluation against the
// baseline on random trees and random queries.
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
			enginetest.Run(t, q+" on "+string(doc), doc, inst, prog, allPaths)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
