package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/corpus"
)

// doc is one generated document of the catalog: one version of a named
// document. Writers in the ingest workload replace a document with
// another version of the same name.
type doc struct {
	Name    string
	Corpus  int // index into catalog.Corpora
	Version int
	XML     []byte
}

// query is one of the 40 corpus queries (8 corpora x Q1..Q5).
type query struct {
	Corpus int
	Text   string
}

// catalog is a seeded mix of all eight paper corpora: perCorpus
// documents of each, every one at the same size scale, plus extra
// versions of the documents a writer replaces.
type catalog struct {
	Corpora []corpus.Corpus
	Queries []query
	// Docs holds version 0 of every document, in name order (the
	// store's catalog order).
	Docs []*doc
	// Versions[name] lists every version of a document, version 0
	// first. Documents no writer touches have one version.
	Versions map[string][]*doc
}

// splitmix64 scrambles x; it derives independent seeds for documents,
// clients and the writer from the one workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// subSeed derives a seed for one purpose from the workload seed.
func subSeed(seed uint64, parts ...uint64) uint64 {
	s := splitmix64(seed)
	for _, p := range parts {
		s = splitmix64(s ^ p)
	}
	return s
}

// docName is the catalogued name of document i of a corpus; names use
// only the characters store.ValidateDocName accepts.
func docName(corpusName string, i int) string {
	return fmt.Sprintf("%s-%02d", strings.ReplaceAll(corpusName, "-", ""), i)
}

// scaled applies the workload's size factor to a corpus's default
// scale, never going below one record.
func scaled(def int, factor float64) int {
	n := int(float64(def)*factor + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// newCatalog generates the catalog: perCorpus documents of every
// corpus at scale factor, and versions extra versions of the first
// writable documents of each corpus but the one named readOnly. The
// same seed gives byte-identical documents.
func newCatalog(seed uint64, perCorpus int, factor float64, writable, versions int, readOnly string) *catalog {
	cat := &catalog{Corpora: corpus.Catalog(), Versions: make(map[string][]*doc)}
	for ci, c := range cat.Corpora {
		for _, q := range c.Queries {
			cat.Queries = append(cat.Queries, query{Corpus: ci, Text: q})
		}
		for i := 0; i < perCorpus; i++ {
			name := docName(c.Name, i)
			nv := 1
			if i < writable && c.Name != readOnly {
				nv += versions
			}
			for v := 0; v < nv; v++ {
				d := &doc{
					Name: name, Corpus: ci, Version: v,
					XML: c.Generate(scaled(c.DefaultScale, factor), subSeed(seed, uint64(ci), uint64(i), uint64(v))),
				}
				cat.Versions[name] = append(cat.Versions[name], d)
			}
		}
	}
	for _, vs := range cat.Versions {
		cat.Docs = append(cat.Docs, vs[0])
	}
	sort.Slice(cat.Docs, func(i, j int) bool { return cat.Docs[i].Name < cat.Docs[j].Name })
	return cat
}

// xmlBytes sums the XML size of version 0 of every document.
func (c *catalog) xmlBytes() int64 {
	var n int64
	for _, d := range c.Docs {
		n += int64(len(d.XML))
	}
	return n
}

// Request kinds of the read mix.
const (
	kindFanout = iota // GET /query?q=
	kindDoc           // GET /query?doc=&q=
	numKinds
)

// readReq is one request of the read mix.
type readReq struct {
	Kind  int
	Query int // index into catalog.Queries
	Doc   int // index into catalog.Docs (kindDoc only)
}

// allReads lists every distinct request of the read mix: the 40
// fan-outs, then each document with each of its corpus's queries.
func allReads(cat *catalog) []readReq {
	var rs []readReq
	for q := range cat.Queries {
		rs = append(rs, readReq{Kind: kindFanout, Query: q})
	}
	for di, d := range cat.Docs {
		for qi := 0; qi < 5; qi++ {
			rs = append(rs, readReq{Kind: kindDoc, Doc: di, Query: d.Corpus*5 + qi})
		}
	}
	return rs
}

// readStream is one client's seeded request sequence. It alternates
// catalog fan-outs with single-document queries, and deals each kind
// from its own deck of every distinct request, reshuffled each time it
// runs out: every corpus query and every (document, own query) pair
// recurs at the same rate, so the mix does not drift with the draw and
// only its order depends on the seed.
type readStream struct {
	rng   *rand.Rand
	decks [numKinds][]readReq
	pos   [numKinds]int
	n     int
}

func newReadStream(cat *catalog, seed uint64, client int) *readStream {
	s := &readStream{rng: rand.New(rand.NewSource(int64(subSeed(seed, 0x5eed, uint64(client)))))}
	for _, r := range allReads(cat) {
		s.decks[r.Kind] = append(s.decks[r.Kind], r)
	}
	return s
}

func (s *readStream) next() readReq {
	kind := s.n % numKinds
	s.n++
	deck := s.decks[kind]
	if s.pos[kind] == 0 {
		s.rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	}
	r := deck[s.pos[kind]]
	s.pos[kind] = (s.pos[kind] + 1) % len(deck)
	return r
}

// writeOp is one scheduled write of the open-loop writer: replace Name
// with version Version, preceded by a DELETE when Delete is set.
type writeOp struct {
	Name    string
	Version int
	Delete  bool
}

// writeSchedule returns the writer's first n operations. Each replaces
// a document of the fixed writable name set with a different version
// of itself; deleteEvery-th operations on average delete the document
// first and then re-POST it.
func writeSchedule(cat *catalog, seed uint64, n, deleteEvery int) []writeOp {
	var names []string
	for _, d := range cat.Docs {
		if len(cat.Versions[d.Name]) > 1 {
			names = append(names, d.Name)
		}
	}
	if len(names) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(int64(subSeed(seed, 0x3717e))))
	current := make(map[string]int, len(names))
	ops := make([]writeOp, n)
	for i := range ops {
		name := names[rng.Intn(len(names))]
		nv := len(cat.Versions[name])
		v := (current[name] + 1 + rng.Intn(nv-1)) % nv
		current[name] = v
		ops[i] = writeOp{Name: name, Version: v, Delete: rng.Intn(deleteEvery) == 0}
	}
	return ops
}
