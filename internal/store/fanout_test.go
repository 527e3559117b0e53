package store_test

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/store"
)

// normalizeFanout clears the fields that differ between two renderings
// of one answer: wall time, timings and the trace.
func normalizeFanout(r store.FanoutResponse) store.FanoutResponse {
	r.WallNanos, r.Trace = 0, nil
	docs := make([]store.QueryResponse, len(r.Docs))
	for i, d := range r.Docs {
		d.PrepNanos, d.EvalNanos = 0, 0
		docs[i] = d
	}
	r.Docs = docs
	return r
}

// renderedDirect counts the synopsis-direct documents a response
// renders addresses for: exactly those whose count needed a real
// evaluation (a planner fallback).
func renderedDirect(r store.FanoutResponse) (direct, rendered uint64) {
	for _, d := range r.Docs {
		if d.Direct {
			direct++
			if len(d.Paths) > 0 {
				rendered++
			}
		}
	}
	return direct, rendered
}

// TestDirectFallbacksRunInEvalStage pins where the planner fallback of a
// count-shaped fan-out runs. Such a query (Q2 of SwissProt, TreeBank and
// DBLP) is answered per document from synopsis statistics, but the
// addresses a response renders need a real evaluation. The fan-out runs
// those evaluations on its worker pool within the eval stage, for
// exactly the documents the path budget reaches, so rendering (the
// materialize stage) evaluates nothing, and the response is unchanged.
func TestDirectFallbacksRunInEvalStage(t *testing.T) {
	docs := make(map[string][]byte)
	for _, name := range []string{"SwissProt", "TreeBank", "DBLP"} {
		c, err := corpus.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			docs[fmt.Sprintf("%s-%d", name, i)] = c.Generate(c.DefaultScale/40+3, uint64(i+1))
		}
	}
	srv, s := newTestServer(t, docs, store.Options{Workers: 2})

	for _, name := range []string{"SwissProt", "TreeBank", "DBLP"} {
		c, _ := corpus.ByName(name)
		q := c.Queries[1]
		for _, max := range []int{1, 100} {
			ctx := fmt.Sprintf("%s Q2 max=%d", name, max)
			before := s.Stats().PlanFallback
			var fr store.FanoutResponse
			u := srv.URL + "/query?trace=1&max=" + fmt.Sprint(max) + "&q=" + url.QueryEscape(q)
			if status := getJSON(t, u, &fr); status != http.StatusOK {
				t.Fatalf("%s: status %d", ctx, status)
			}
			direct, rendered := renderedDirect(fr)
			if direct == 0 || rendered == 0 {
				t.Fatalf("%s: %d direct documents, %d rendering paths; want both > 0", ctx, direct, rendered)
			}
			if max == 1 && rendered != 1 {
				t.Fatalf("%s: %d direct documents render paths, want the budget to reach one", ctx, rendered)
			}
			if got := s.Stats().PlanFallback - before; got != rendered {
				t.Errorf("%s: %d planner fallbacks, want %d (one per direct document rendering paths)", ctx, got, rendered)
			}
			if fr.Trace == nil || fr.Trace.Stages["eval"] <= 0 {
				t.Errorf("%s: trace %+v, want an eval stage", ctx, fr.Trace)
			}

			// The same fan-out split at the stage boundary: every
			// fallback has run before rendering starts.
			resp, inFanout, inRender, err := s.RenderedFanout(q, max, false)
			if err != nil {
				t.Fatal(err)
			}
			if inFanout != rendered || inRender != 0 {
				t.Errorf("%s: fallbacks %d in the fan-out and %d while rendering, want %d and 0",
					ctx, inFanout, inRender, rendered)
			}
			if got, want := normalizeFanout(*resp), normalizeFanout(fr); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: rendered response diverges from the handler's:\n got %+v\nwant %+v", ctx, got, want)
			}

			// FanoutLocal's per-document budget: every direct document
			// renders paths, all evaluated in the fan-out.
			local, err := s.FanoutLocal(context.Background(), q, max, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, inFanout, inRender, err = s.RenderedFanout(q, max, true)
			if err != nil {
				t.Fatal(err)
			}
			if _, all := renderedDirect(*local); inFanout != all || inRender != 0 {
				t.Errorf("%s per-doc: fallbacks %d in the fan-out and %d while rendering, want %d and 0",
					ctx, inFanout, inRender, all)
			}
			if got, want := normalizeFanout(*resp), normalizeFanout(*local); !reflect.DeepEqual(got, want) {
				t.Errorf("%s per-doc: rendered response diverges from FanoutLocal's", ctx)
			}
		}
	}
}
