package engine_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/dagtest"
	"repro/internal/engine"
	"repro/internal/enginetest"
	"repro/internal/skeleton"
	"repro/internal/xpath"
)

// TestForEachRunsEveryIndexOnce: every index in [0, n) runs exactly once,
// whatever the worker count — the default (0), sequential (1), fewer
// workers than indices, and more — and n = 0 runs nothing.
func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 10} {
		for _, workers := range []int{0, 1, 3, n + 5} {
			hits := make([]int32, n)
			engine.ForEach(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, h)
				}
			}
		}
	}
}

// TestForEachCtxStopsDispatchOnCancel: once the context is cancelled no
// further index is dispatched and ctx.Err() is returned, while every
// index that had started runs to completion before ForEachCtx returns.
func TestForEachCtxStopsDispatchOnCancel(t *testing.T) {
	t.Run("sequential", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var ran []int
		err := engine.ForEachCtx(ctx, 10, 1, func(i int) {
			ran = append(ran, i)
			if i == 2 {
				cancel()
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if !reflect.DeepEqual(ran, []int{0, 1, 2}) {
			t.Fatalf("ran %v, want [0 1 2]", ran)
		}
	})
	t.Run("pool", func(t *testing.T) {
		// All three workers block inside fn, so the dispatcher parks in
		// its select to hand out index 3, and the cancellation is the
		// only event that can wake it: it must stop dispatching even
		// though the workers are free again right after.
		const workers = 3
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var started, finished sync.Map
		var running sync.WaitGroup
		running.Add(workers)
		release := make(chan struct{})
		errc := make(chan error, 1)
		go func() {
			errc <- engine.ForEachCtx(ctx, 100, workers, func(i int) {
				started.Store(i, true)
				if i < workers {
					running.Done()
				}
				<-release
				finished.Store(i, true)
			})
		}()
		running.Wait()
		for deadline := time.Now().Add(10 * time.Second); !dispatcherParked(); runtime.Gosched() {
			if time.Now().After(deadline) {
				close(release)
				t.Fatal("the dispatcher never waited on a busy pool")
			}
		}
		cancel()
		close(release)
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		var got []int
		started.Range(func(k, _ any) bool {
			got = append(got, k.(int))
			if _, ok := finished.Load(k); !ok {
				t.Errorf("index %v started but did not finish", k)
			}
			return true
		})
		sort.Ints(got)
		if len(got) != workers {
			t.Fatalf("started %v after cancellation, want only the first %d indices", got, workers)
		}
	})
}

// dispatcherParked reports whether a goroutine is blocked in a select in
// ForEachCtx's own frame — its dispatcher, as opposed to the workers,
// which run in a closure of it.
func dispatcherParked() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "[select") && strings.Contains(g, "engine.ForEachCtx(") {
			return true
		}
	}
	return false
}

// fanOutDocs is a small fleet of distinct documents.
var fanOutDocs = []string{
	bibXML,
	`<bib><book><title>x</title></book></bib>`,
	`<bib><paper><author>Codd</author></paper><paper><author>Codd</author></paper></bib>`,
	`<bib><book><author>Vardi</author><author>Codd</author></book></bib>`,
}

// frozenFleet distils one instance per document over prog's schema and
// freezes it.
func frozenFleet(t *testing.T, prog *xpath.Program) []*dag.Frozen {
	t.Helper()
	out := make([]*dag.Frozen, len(fanOutDocs))
	for i, d := range fanOutDocs {
		inst, _, err := skeleton.BuildCompressed([]byte(d), skeleton.Options{
			Mode: skeleton.TagsListed, Tags: prog.Tags, Strings: prog.Strings,
		})
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		out[i] = dag.Freeze(inst)
	}
	return out
}

// TestFanOutMatchesSequential: one program fanned out over several
// documents on the worker pool, every worker reading the same frozen
// instances, gives each document the result of a sequential evaluation
// that the baseline oracle checked.
func TestFanOutMatchesSequential(t *testing.T) {
	for _, query := range []string{
		`//author`,
		`/bib/book/author`,
		`//paper[author["Codd"]]`,
		`//book[author["Vardi"] and author["Codd"]]`,
	} {
		prog, err := xpath.CompileQuery(query)
		if err != nil {
			t.Fatalf("compile %q: %v", query, err)
		}
		seq := make([]*engine.Result, len(fanOutDocs))
		for i, d := range fanOutDocs {
			inst, _, err := skeleton.BuildCompressed([]byte(d), skeleton.Options{
				Mode: skeleton.TagsListed, Tags: prog.Tags, Strings: prog.Strings,
			})
			if err != nil {
				t.Fatal(err)
			}
			seq[i] = enginetest.Run(t, query, []byte(d), inst, prog, runPaths)
		}
		fleet := frozenFleet(t, prog)
		for _, workers := range []int{1, 2, 7} {
			out := make([]*engine.Result, len(fleet))
			errs := make([]error, len(fleet))
			engine.ForEach(len(fleet), workers, func(i int) {
				out[i], errs[i] = engine.RunFrozen(fleet[i], prog)
			})
			for i := range out {
				if errs[i] != nil {
					t.Fatalf("%q workers=%d doc %d: %v", query, workers, i, errs[i])
				}
				enginetest.Same(t, query, out[i], seq[i], runPaths)
			}
		}
	}
}

// TestFanOutConcurrentCalls: many simultaneous fan-outs over the same
// frozen instances — the shared-base data-race test, run with -race.
func TestFanOutConcurrentCalls(t *testing.T) {
	prog, err := xpath.CompileQuery(`//paper[author]/following-sibling::*`)
	if err != nil {
		t.Fatal(err)
	}
	fleet := frozenFleet(t, prog)
	want := make([]*engine.Result, len(fleet))
	for i, f := range fleet {
		if want[i], err = engine.RunFrozen(f, prog); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			engine.ForEach(len(fleet), 3, func(i int) {
				r, err := engine.RunFrozen(fleet[i], prog)
				if err != nil {
					t.Error(err)
					return
				}
				if r.SelectedDAG != want[i].SelectedDAG || r.SelectedTree != want[i].SelectedTree ||
					!reflect.DeepEqual(r.View.Paths(runPaths), want[i].View.Paths(runPaths)) {
					t.Errorf("doc %d: concurrent call diverged: %d/%d != %d/%d",
						i, r.SelectedDAG, r.SelectedTree, want[i].SelectedDAG, want[i].SelectedTree)
				}
			})
		}()
	}
	wg.Wait()
}

// TestRunFrozenError: an unknown instruction fails the evaluation instead
// of producing a result.
func TestRunFrozenError(t *testing.T) {
	bad := &xpath.Program{Instrs: []xpath.Instr{{Op: xpath.OpKind(250), Dst: 0}}, NumTemp: 1}
	for _, term := range []string{"a(b)", "a(b,b)"} {
		f := dag.Freeze(dagtest.CompressedFromTerm(term))
		if _, err := engine.RunFrozen(f, bad); err == nil {
			t.Fatalf("%s: RunFrozen accepted a bad program", term)
		}
	}
}
