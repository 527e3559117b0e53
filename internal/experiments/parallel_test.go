package experiments_test

import (
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/enginetest"
	"repro/internal/skeleton"
	"repro/internal/xpath"
)

// goldenScale keeps the golden sweep fast while exercising every
// generator's planted query structures.
const goldenScale = 0.05

// goldenPaths bounds the result paths compared: every one at goldenScale.
const goldenPaths = 1 << 20

// goldenCase is one (corpus, query) document's frozen instance, with the
// sequential result the baseline oracle checked.
type goldenCase struct {
	corpus string
	qnum   int
	f      *dag.Frozen
	prog   *xpath.Program
	seq    *engine.Result
}

func buildGoldenCases(t *testing.T) []*goldenCase {
	t.Helper()
	var cases []*goldenCase
	for _, c := range corpus.Catalog() {
		scale := int(float64(c.DefaultScale) * goldenScale)
		if scale < 1 {
			scale = 1
		}
		doc := c.Generate(scale, 1)
		for qi, q := range c.Queries {
			prog, err := xpath.CompileQuery(q)
			if err != nil {
				t.Fatalf("%s Q%d: %v", c.Name, qi+1, err)
			}
			inst, _, err := skeleton.BuildCompressed(doc, skeleton.Options{
				Mode: skeleton.TagsListed, Tags: prog.Tags, Strings: prog.Strings,
			})
			if err != nil {
				t.Fatalf("%s Q%d: %v", c.Name, qi+1, err)
			}
			seq := enginetest.Run(t, fmt.Sprintf("%s Q%d", c.Name, qi+1), doc, inst, prog, goldenPaths)
			cases = append(cases, &goldenCase{corpus: c.Name, qnum: qi + 1, f: dag.Freeze(inst), prog: prog, seq: seq})
		}
	}
	return cases
}

// TestParallelGoldenAllCorpora is the golden parallel-evaluation suite:
// for EVERY corpus generator and EVERY experiment query, replicas of the
// query fanned out on the worker pool (at several worker counts), all
// reading one shared frozen instance, must each report exactly what the
// sequential evaluation did — same selection, same vertex/edge counts,
// same result paths — and that one agrees with the baseline evaluator.
func TestParallelGoldenAllCorpora(t *testing.T) {
	for _, gc := range buildGoldenCases(t) {
		gc := gc
		t.Run(fmt.Sprintf("%s/Q%d", gc.corpus, gc.qnum), func(t *testing.T) {
			const replicas = 4
			for _, workers := range []int{1, 4} {
				out := make([]*engine.Result, replicas)
				errs := make([]error, replicas)
				engine.ForEach(replicas, workers, func(i int) {
					out[i], errs[i] = engine.RunFrozen(gc.f, gc.prog)
				})
				for i, r := range out {
					if errs[i] != nil {
						t.Fatalf("workers=%d: %v", workers, errs[i])
					}
					enginetest.Same(t, fmt.Sprintf("%s Q%d workers=%d replica %d", gc.corpus, gc.qnum, workers, i), r, gc.seq, goldenPaths)
				}
			}
		})
	}
}

// TestParallelGoldenBatched runs the whole catalog's (corpus, query)
// cases through ONE fan-out — documents of different corpora, schemas
// and programs evaluating side by side, each replicated over its shared
// frozen instance — and checks every evaluation against its sequential
// result.
func TestParallelGoldenBatched(t *testing.T) {
	cases := buildGoldenCases(t)
	const replicas = 5
	out := make([]*engine.Result, replicas*len(cases))
	errs := make([]error, len(out))
	engine.ForEach(len(out), 3, func(i int) {
		gc := cases[i/replicas]
		out[i], errs[i] = engine.RunFrozen(gc.f, gc.prog)
	})
	for i, r := range out {
		gc := cases[i/replicas]
		if errs[i] != nil {
			t.Fatalf("%s Q%d: %v", gc.corpus, gc.qnum, errs[i])
		}
		enginetest.Same(t, fmt.Sprintf("%s Q%d replica %d", gc.corpus, gc.qnum, i%replicas), r, gc.seq, goldenPaths)
	}
}
