package experiments_test

import (
	"bytes"
	"testing"

	"repro/internal/experiments"
)

func TestStoreSweepSmoke(t *testing.T) {
	rows, err := experiments.StoreSweep("DBLP", 3, 0.02, 5, []int{1, 2}, []float64{1.0, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	// 5 queries x 2 worker counts x 2 budgets.
	if len(rows) != 20 {
		t.Fatalf("got %d rows, want 20", len(rows))
	}
	for _, r := range rows {
		if r.StoreWall <= 0 || r.ParseWall <= 0 {
			t.Fatalf("row %+v has non-positive timings", r)
		}
		if r.CacheFrac == 1.0 && r.Misses != 0 {
			t.Errorf("full-budget row %+v missed the cache", r)
		}
	}
	// Full-budget and constrained rows must select the same nodes.
	byQW := map[[2]int]uint64{}
	for _, r := range rows {
		k := [2]int{r.Query, r.Workers}
		if prev, ok := byQW[k]; ok && prev != r.SelectedTree {
			t.Errorf("Q%d workers=%d: selection varies with budget (%d vs %d)", r.Query, r.Workers, prev, r.SelectedTree)
		}
		byQW[k] = r.SelectedTree
	}
	var buf bytes.Buffer
	experiments.PrintStore(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("PrintStore wrote nothing")
	}
}

func TestStoreSweepRejectsBadArgs(t *testing.T) {
	if _, err := experiments.StoreSweep("NoSuchCorpus", 1, 1, 1, []int{1}, nil); err == nil {
		t.Fatal("unknown corpus accepted")
	}
	if _, err := experiments.StoreSweep("DBLP", 0, 1, 1, []int{1}, nil); err == nil {
		t.Fatal("zero docs accepted")
	}
	if _, err := experiments.StoreSweep("DBLP", 1, 1, 1, nil, nil); err == nil {
		t.Fatal("empty worker counts accepted")
	}
}

// TestParallelSweepConsistency: the store sweep's worker-count sweep
// selects the same nodes at every worker count and cache budget, and
// every row is well formed.
func TestParallelSweepConsistency(t *testing.T) {
	rows, err := experiments.StoreSweep("DBLP", 3, 0.02, 1, []int{1, 2, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5*3 {
		t.Fatalf("got %d rows, want %d", len(rows), 5*3)
	}
	byQuery := map[int]uint64{}
	for _, r := range rows {
		if r.Docs != 3 || r.StoreWall <= 0 || r.Speedup <= 0 {
			t.Fatalf("malformed row %+v", r)
		}
		if prev, ok := byQuery[r.Query]; ok && prev != r.SelectedTree {
			t.Errorf("Q%d: selection varies with the worker count (%d vs %d)", r.Query, prev, r.SelectedTree)
		}
		byQuery[r.Query] = r.SelectedTree
	}
}
