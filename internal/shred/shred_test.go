package shred_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/codec"
	"repro/internal/corpus"
	"repro/internal/dag"
	"repro/internal/dagtest"
	"repro/internal/engine"
	"repro/internal/enginetest"
	"repro/internal/shred"
	"repro/internal/skeleton"
	"repro/internal/xpath"
)

// assembleEqualsDirect shreds doc, reassembles, and compares against the
// whole-document build.
func assembleEqualsDirect(t *testing.T, doc []byte, opts skeleton.Options, perChunk int) {
	t.Helper()
	s, err := shred.Shred(doc, opts, perChunk)
	if err != nil {
		t.Fatalf("Shred: %v", err)
	}
	assembled, err := s.Assemble()
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if err := assembled.Validate(); err != nil {
		t.Fatalf("assembled instance invalid: %v", err)
	}
	direct, _, err := skeleton.BuildCompressed(doc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !dag.Equivalent(assembled, direct) {
		t.Fatalf("assembled differs from direct build\nassembled:\n%s\ndirect:\n%s", assembled, direct)
	}
	if assembled.NumVertices() != direct.NumVertices() || assembled.NumEdges() != direct.NumEdges() {
		t.Fatalf("assembled %d/%d vs direct %d/%d: cross-chunk sharing not re-merged",
			assembled.NumVertices(), assembled.NumEdges(), direct.NumVertices(), direct.NumEdges())
	}
}

func TestAssembleMatchesDirectBuild(t *testing.T) {
	doc := []byte(`<bib><book><t/><a/></book><paper><t/><a/></paper><paper><t/><a/></paper><book><t/><a/></book></bib>`)
	for _, perChunk := range []int{1, 2, 3, 100} {
		assembleEqualsDirect(t, doc, skeleton.Options{Mode: skeleton.TagsAll}, perChunk)
	}
}

func TestAssembleWithStringConditions(t *testing.T) {
	doc := []byte(`<r><e><v>veto here</v></e><e><v>nothing</v></e><e><v>another veto</v></e></r>`)
	opts := skeleton.Options{Mode: skeleton.TagsAll, Strings: []string{"veto"}}
	for _, perChunk := range []int{1, 2, 10} {
		assembleEqualsDirect(t, doc, opts, perChunk)
	}
}

func TestShredSingleRecordAndEmptyRoot(t *testing.T) {
	assembleEqualsDirect(t, []byte(`<r><only/></r>`), skeleton.Options{Mode: skeleton.TagsAll}, 1)
	assembleEqualsDirect(t, []byte(`<r></r>`), skeleton.Options{Mode: skeleton.TagsAll}, 4)
}

func TestShredChunkCounts(t *testing.T) {
	doc := []byte(`<r><a/><a/><a/><a/><a/></r>`)
	s, err := shred.Shred(doc, skeleton.Options{Mode: skeleton.TagsAll}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Chunks) != 3 { // 2+2+1
		t.Fatalf("chunks = %d, want 3", len(s.Chunks))
	}
	if s.NumRecords() != 5 {
		t.Fatalf("records = %d, want 5", s.NumRecords())
	}
	if s.RootTag != "r" {
		t.Fatalf("root tag = %q", s.RootTag)
	}
}

func TestShredRejectsBadInput(t *testing.T) {
	if _, err := shred.Shred([]byte(`<a><b></a>`), skeleton.Options{}, 4); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := shred.Shred([]byte(`<a/>`), skeleton.Options{}, 0); err == nil {
		t.Fatal("expected recordsPerChunk error")
	}
}

// TestPropertyShredAssembleRoundTrip: random documents, random chunk
// sizes, with and without string conditions (patterns chosen so they
// cannot span text-chunk concatenation seams: no pool word's suffix is
// another's prefix fragment of "veto"/"xyz").
func TestPropertyShredAssembleRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := dagtest.RandomXML(r, 100, 4, 3)
		opts := skeleton.Options{Mode: skeleton.TagsAll}
		if r.Intn(2) == 0 {
			opts.Strings = []string{"veto", "xyz"}
		}
		perChunk := 1 + r.Intn(5)

		s, err := shred.Shred(doc, opts, perChunk)
		if err != nil {
			return false
		}
		assembled, err := s.Assemble()
		if err != nil {
			return false
		}
		direct, _, err := skeleton.BuildCompressed(doc, opts)
		if err != nil {
			return false
		}
		if !dag.Equivalent(assembled, direct) {
			t.Logf("divergence on %s (perChunk=%d)", doc, perChunk)
			return false
		}
		return assembled.NumVertices() == direct.NumVertices()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestChunksPersistIndependently: every chunk round-trips through the
// binary codec on its own, and reassembly from decoded chunks is
// unchanged — the "cache chunks in secondary storage" property.
func TestChunksPersistIndependently(t *testing.T) {
	c, err := corpus.ByName("Baseball")
	if err != nil {
		t.Fatal(err)
	}
	doc := c.Generate(2, 3)
	opts := skeleton.Options{Mode: skeleton.TagsAll}
	s, err := shred.Shred(doc, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, chunk := range s.Chunks {
		var buf bytes.Buffer
		if err := codec.EncodeInstance(&buf, chunk); err != nil {
			t.Fatalf("chunk %d encode: %v", i, err)
		}
		back, err := codec.DecodeInstance(&buf)
		if err != nil {
			t.Fatalf("chunk %d decode: %v", i, err)
		}
		s.Chunks[i] = back
	}
	assembled, err := s.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	direct, _, err := skeleton.BuildCompressed(doc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !dag.Equivalent(assembled, direct) {
		t.Fatal("assembly from persisted chunks diverged")
	}
}

// TestShreddedQueriesMatchDirect runs the corpus query suite through
// shredded storage, checking it against the baseline evaluator and the
// directly built instance.
func TestShreddedQueriesMatchDirect(t *testing.T) {
	for _, name := range []string{"DBLP", "OMIM"} {
		c, err := corpus.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		doc := c.Generate(120, 5)
		for qi, q := range c.Queries {
			prog, err := xpath.CompileQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			opts := skeleton.Options{
				Mode: skeleton.TagsListed, Tags: prog.Tags, Strings: prog.Strings,
			}
			s, err := shred.Shred(doc, opts, 25)
			if err != nil {
				t.Fatal(err)
			}
			assembled, err := s.Assemble()
			if err != nil {
				t.Fatal(err)
			}
			res := enginetest.Run(t, fmt.Sprintf("%s Q%d shredded", name, qi+1), doc, assembled, prog, 1<<10)
			directInst, _, err := skeleton.BuildCompressed(doc, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := engine.RunFrozen(dag.Freeze(directInst), prog)
			if err != nil {
				t.Fatal(err)
			}
			if res.SelectedTree != want.SelectedTree {
				t.Errorf("%s Q%d: shredded %d != direct %d", name, qi+1, res.SelectedTree, want.SelectedTree)
			}
		}
	}
}
