package experiments_test

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/experiments"
)

// fig7Counts is the count columns of one Figure 7 row: everything but
// the timings.
type fig7Counts struct {
	Corpus       string
	Query        int
	VertsBefore  int
	EdgesBefore  int
	VertsAfter   int
	EdgesAfter   int
	SelectedDAG  int
	SelectedTree uint64
}

// cloneGolden is testdata/clone_golden.json: the Figure 6 rows, the
// Figure 7 count columns (keyed by size scale) and the decompression-
// growth points, all at seed 1, as the former clone-path evaluator
// (which consumed a private copy of each instance) computed them at
// commit 719aa4f, before its removal.
type cloneGolden struct {
	Commit      string
	Seed        uint64
	Fig6Scale   float64
	Fig6        []experiments.Fig6Row
	Fig7        map[string][]fig7Counts
	GrowthDepth int
	GrowthSteps int
	Benign      []experiments.GrowthPoint
	Adversarial []experiments.GrowthPoint
}

// TestCloneGolden pins the paper's tables, now computed with Freeze +
// RunFrozen, to the golden file, exactly.
func TestCloneGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/clone_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var g cloneGolden
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}

	fig6, err := experiments.Fig6(g.Fig6Scale, g.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fig6, g.Fig6) {
		t.Errorf("Figure 6 rows diverge from the golden file:\ngot  %+v\nwant %+v", fig6, g.Fig6)
	}

	if len(g.Fig7) == 0 {
		t.Fatal("golden file holds no Figure 7 rows")
	}
	for key, want := range g.Fig7 {
		var scale float64
		if err := json.Unmarshal([]byte(key), &scale); err != nil {
			t.Fatalf("Figure 7 scale %q: %v", key, err)
		}
		rows, err := experiments.Fig7(scale, g.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(want) {
			t.Fatalf("scale %s: %d Figure 7 rows, golden %d", key, len(rows), len(want))
		}
		for i, r := range rows {
			got := fig7Counts{r.Corpus, r.Query, r.VertsBefore, r.EdgesBefore,
				r.VertsAfter, r.EdgesAfter, r.SelectedDAG, r.SelectedTre}
			if got != want[i] {
				t.Errorf("scale %s: Figure 7 row %+v, golden %+v", key, got, want[i])
			}
		}
	}

	benign, adversarial, err := experiments.DecompressionGrowth(g.GrowthDepth, g.GrowthSteps)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(benign, g.Benign) {
		t.Errorf("benign growth diverges:\ngot  %+v\nwant %+v", benign, g.Benign)
	}
	if !reflect.DeepEqual(adversarial, g.Adversarial) {
		t.Errorf("adversarial growth diverges:\ngot  %+v\nwant %+v", adversarial, g.Adversarial)
	}
}
