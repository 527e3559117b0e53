package main

import (
	"bytes"
	"reflect"
	"testing"
)

func TestCatalogIsSeeded(t *testing.T) {
	a := newCatalog(7, 1, 0.02, 1, 1, "")
	b := newCatalog(7, 1, 0.02, 1, 1, "")
	c := newCatalog(8, 1, 0.02, 1, 1, "")
	if len(a.Docs) != 8 || len(a.Queries) != 40 {
		t.Fatalf("catalog has %d docs and %d queries, want 8 and 40", len(a.Docs), len(a.Queries))
	}
	differs := false
	for i, d := range a.Docs {
		if d.Name != b.Docs[i].Name || !bytes.Equal(d.XML, b.Docs[i].XML) {
			t.Fatalf("same seed, different document %s", d.Name)
		}
		if len(a.Versions[d.Name]) != 2 {
			t.Fatalf("%s has %d versions, want 2", d.Name, len(a.Versions[d.Name]))
		}
		if !bytes.Equal(d.XML, c.Docs[i].XML) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("a different seed generated the same catalog")
	}
}

func TestRequestStreamsAreSeeded(t *testing.T) {
	cat := newCatalog(1, 1, 0.02, 1, 2, "")
	take := func(seed uint64, client int) []readReq {
		s := newReadStream(cat, seed, client)
		out := make([]readReq, 200)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	if !reflect.DeepEqual(take(3, 0), take(3, 0)) {
		t.Fatal("same seed and client, different request stream")
	}
	if reflect.DeepEqual(take(3, 0), take(4, 0)) {
		t.Fatal("a different seed gave the same request stream")
	}
	if reflect.DeepEqual(take(3, 0), take(3, 1)) {
		t.Fatal("two clients of one seed send the same stream")
	}
	// Half fan-outs, half single-document reads; within each run of 40
	// fan-outs every corpus query appears once.
	kinds := [numKinds]int{}
	seen := map[int]int{}
	for i, r := range take(3, 0) {
		kinds[r.Kind]++
		if r.Kind == kindDoc && cat.Queries[r.Query].Corpus != cat.Docs[r.Doc].Corpus {
			t.Fatalf("single-document request pairs %s with a query of another corpus", cat.Docs[r.Doc].Name)
		}
		if r.Kind == kindFanout && i < 80 {
			seen[r.Query]++
		}
	}
	if kinds[kindFanout] != 100 || kinds[kindDoc] != 100 {
		t.Fatalf("mix is not half and half: %v", kinds)
	}
	if len(seen) != len(cat.Queries) {
		t.Fatalf("the first %d fan-outs cover %d of %d queries", 40, len(seen), len(cat.Queries))
	}

	w1 := writeSchedule(cat, 5, 100, 20)
	if !reflect.DeepEqual(w1, writeSchedule(cat, 5, 100, 20)) {
		t.Fatal("same seed, different write schedule")
	}
	if reflect.DeepEqual(w1, writeSchedule(cat, 6, 100, 20)) {
		t.Fatal("a different seed gave the same write schedule")
	}
	last := map[string]int{}
	for _, op := range w1 {
		if op.Version == last[op.Name] {
			t.Fatalf("write %+v does not change its document", op)
		}
		last[op.Name] = op.Version
	}
}
