package dag_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/dagtest"
	"repro/internal/label"
)

// buildVia constructs the same three-level structure through any builder
// with the sequential Add signature, returning the root.
type adder interface {
	Add(labels label.Set, children []dag.VertexID) dag.VertexID
	SetRoot(id dag.VertexID)
}

func buildRecords(b adder, leafL, recL, rootL label.ID, records, width int) {
	var recs []dag.VertexID
	for i := 0; i < records; i++ {
		var leaves []dag.VertexID
		for j := 0; j < width; j++ {
			// Only a few distinct leaf shapes, so sharing is heavy.
			var ls label.Set
			if (i+j)%3 == 0 {
				ls = ls.Set(leafL)
			}
			leaves = append(leaves, b.Add(ls, nil))
		}
		var ls label.Set
		recs = append(recs, b.Add(ls.Set(recL), leaves))
	}
	var ls label.Set
	b.SetRoot(b.Add(ls.Set(rootL), recs))
}

// TestParallelBuilderMatchesBuilder: the sharded builder must produce an
// instance with exactly the sequential builder's vertex/edge counts and
// tree size — hash-consing across shards sees every duplicate.
func TestParallelBuilderMatchesBuilder(t *testing.T) {
	seqSchema := label.NewSchema()
	sb := dag.NewBuilder(seqSchema)
	buildRecords(sb, seqSchema.Intern("leaf"), seqSchema.Intern("rec"), seqSchema.Intern("root"), 50, 8)
	seq := sb.Instance()

	pb := dag.NewParallelBuilder(nil)
	buildRecords(pb, pb.Intern("leaf"), pb.Intern("rec"), pb.Intern("root"), 50, 8)
	par := pb.Instance()

	if err := par.Validate(); err != nil {
		t.Fatalf("parallel instance invalid: %v", err)
	}
	if par.NumVertices() != seq.NumVertices() || par.NumEdges() != seq.NumEdges() {
		t.Fatalf("parallel = %d verts/%d edges, sequential = %d/%d",
			par.NumVertices(), par.NumEdges(), seq.NumVertices(), seq.NumEdges())
	}
	if par.TreeSize() != seq.TreeSize() {
		t.Fatalf("parallel tree size %d != sequential %d", par.TreeSize(), seq.TreeSize())
	}
	if !dag.Minimal(par) {
		t.Fatal("parallel instance is not minimal")
	}
}

// TestParallelBuilderConcurrentAdd hammers one builder from many
// goroutines adding overlapping structures; run under -race this is the
// ParallelBuilder data-race test demanded by the issue. Every goroutine
// adds the same shared shapes, so the final instance must be exactly as
// small as a single goroutine would have made it.
func TestParallelBuilderConcurrentAdd(t *testing.T) {
	const goroutines = 16
	pb := dag.NewParallelBuilder(nil)
	leafL := pb.Intern("leaf")
	recL := pb.Intern("rec")

	roots := make([]dag.VertexID, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var recs []dag.VertexID
			for i := 0; i < 40; i++ {
				var leaves []dag.VertexID
				for j := 0; j < 6; j++ {
					var ls label.Set
					if (i+j)%2 == 0 {
						ls = ls.Set(leafL)
					}
					leaves = append(leaves, pb.Add(ls, nil))
				}
				var ls label.Set
				recs = append(recs, pb.Add(ls.Set(recL), leaves))
			}
			roots[g] = pb.Add(nil, recs)
		}(g)
	}
	wg.Wait()

	// All goroutines added identical structure: their roots must have
	// been hash-consed into ONE vertex.
	for g := 1; g < goroutines; g++ {
		if roots[g] != roots[0] {
			t.Fatalf("goroutine %d got root %d, goroutine 0 got %d — dedup failed across shards",
				g, roots[g], roots[0])
		}
	}
	pb.SetRoot(roots[0])
	inst := pb.Instance()
	if err := inst.Validate(); err != nil {
		t.Fatalf("invalid instance after concurrent build: %v", err)
	}
	if !dag.Minimal(inst) {
		t.Fatal("concurrently built instance is not minimal")
	}
}

// TestParallelBuilderConcurrentIntern: schema interning is serialised.
func TestParallelBuilderConcurrentIntern(t *testing.T) {
	pb := dag.NewParallelBuilder(nil)
	var wg sync.WaitGroup
	ids := make([][]label.ID, 8)
	for g := range ids {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ids[g] = append(ids[g], pb.Intern(fmt.Sprintf("tag%d", i%10)))
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < len(ids); g++ {
		for i := range ids[g] {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("goroutine %d interned tag%d as %d, goroutine 0 as %d",
					g, i%10, ids[g][i], ids[0][i])
			}
		}
	}
}

// TestCompressParallelMatchesCompress: on random trees the level-wave
// parallel minimiser must agree with the sequential one (results are
// isomorphic: identical vertex/edge counts and tree size, both minimal).
func TestCompressParallelMatchesCompress(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		tree := dagtest.RandomTree(r, 300, 5, 4)
		seq := dag.Compress(tree.Clone())
		for _, workers := range []int{1, 3, 8} {
			par := dag.CompressParallel(tree.Clone(), workers)
			if err := par.Validate(); err != nil {
				t.Fatalf("tree %d workers %d: invalid: %v", i, workers, err)
			}
			if par.NumVertices() != seq.NumVertices() || par.NumEdges() != seq.NumEdges() {
				t.Fatalf("tree %d workers %d: parallel %d/%d != sequential %d/%d",
					i, workers, par.NumVertices(), par.NumEdges(), seq.NumVertices(), seq.NumEdges())
			}
			if par.TreeSize() != tree.TreeSize() {
				t.Fatalf("tree %d workers %d: tree size %d != %d", i, workers, par.TreeSize(), tree.TreeSize())
			}
		}
	}
}

// TestCompressParallelEmpty covers the degenerate inputs.
func TestCompressParallelEmpty(t *testing.T) {
	empty := dag.New()
	out := dag.CompressParallel(empty, 4)
	if out.NumVertices() != 0 || out.Root != dag.NilVertex {
		t.Fatalf("compressing empty instance: got %d vertices, root %d", out.NumVertices(), out.Root)
	}
	single := dagtest.FromTerm("a")
	out = dag.CompressParallel(single, 4)
	if out.NumVertices() != 1 {
		t.Fatalf("single vertex: got %d vertices", out.NumVertices())
	}
}
