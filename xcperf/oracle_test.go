package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// fakeServer answers /query from the oracle's own answers, except that
// every answer about the document named wrong is off by one.
func fakeServer(cat *catalog, o *oracle, wrong string) *httptest.Server {
	queryIndex := map[string]int{}
	for i, q := range cat.Queries {
		queryIndex[q.Text] = i
	}
	answer := func(d *doc, q int) uint64 {
		m := o.answers[d][q]
		if d.Name == wrong {
			m++
		}
		return m
	}
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := queryIndex[r.URL.Query().Get("q")]
		var v any
		if name := r.URL.Query().Get("doc"); name != "" {
			v = store.QueryResponse{Doc: name, Matches: answer(cat.Versions[name][0], q), Paths: []string{}}
		} else {
			fr := store.FanoutResponse{Docs: []store.QueryResponse{}}
			for _, d := range cat.Docs {
				m := answer(d, q)
				fr.Docs = append(fr.Docs, store.QueryResponse{Doc: d.Name, Matches: m, Paths: []string{}})
				fr.TotalMatches += m
			}
			v = fr
		}
		_ = json.NewEncoder(w).Encode(v)
	}))
}

func TestOracleCatchesWrongAnswers(t *testing.T) {
	cat := newCatalog(1, 1, 0.02, 0, 0, "")
	o, err := newOracle(cat, 2)
	if err != nil {
		t.Fatal(err)
	}
	wrong := cat.Docs[3].Name
	for _, lie := range []bool{false, true} {
		name := ""
		if lie {
			name = wrong
		}
		srv := fakeServer(cat, o, name)
		s := &stack{nodes: []*node{{url: srv.URL}}}
		rs := runReader(s, cat, o, 9, 0, time.Now().Add(200*time.Millisecond), false)
		srv.Close()
		if rs.attempted == 0 {
			t.Fatal("no requests sent")
		}
		// Every fan-out reports the wrong document; single-document
		// requests are wrong exactly when they name it.
		want := 0
		if lie {
			stream := newReadStream(cat, 9, 0)
			for i := 0; i < rs.attempted; i++ {
				r := stream.next()
				if r.Kind == kindFanout || cat.Docs[r.Doc].Name == wrong {
					want++
				}
			}
		}
		if rs.failed != want {
			t.Errorf("lie=%v: %d of %d requests failed, want %d (first error: %v)", lie, rs.failed, rs.attempted, want, rs.firstErr)
		}
		if lie && (rs.firstErr == nil || !strings.Contains(rs.firstErr.Error(), wrong)) {
			t.Errorf("first error %v does not name %s", rs.firstErr, wrong)
		}
	}
}

func TestOracleVersionStates(t *testing.T) {
	cat := newCatalog(2, 1, 0.02, 1, 2, "")
	o, err := newOracle(cat, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Find a document and query whose answer differs between versions.
	for _, d := range cat.Docs {
		vs := cat.Versions[d.Name]
		for q := range cat.Queries {
			a0, a1 := o.answers[vs[0]][q], o.answers[vs[1]][q]
			if a0 == a1 {
				continue
			}
			if !o.matchesOK(d.Name, q, a0) || o.matchesOK(d.Name, q, a1) {
				t.Fatal("before any write only version 0 may be seen")
			}
			if o.absentOK(d.Name) {
				t.Fatal("before any delete the document may not be absent")
			}
			o.allowVersion(d.Name, 1)
			o.allowAbsent(d.Name)
			if !o.matchesOK(d.Name, q, a0) || !o.matchesOK(d.Name, q, a1) || !o.absentOK(d.Name) {
				t.Fatal("after writing version 1 and deleting, every state written so far may be seen")
			}
			o.settle(d.Name, 1)
			if o.matchesOK(d.Name, q, a0) || !o.matchesOK(d.Name, q, a1) || o.absentOK(d.Name) {
				t.Fatal("once settled only the last version may be seen")
			}
			return
		}
	}
	t.Fatal("no document answers a query differently across versions")
}

func TestNormalizeDropsOnlyTiming(t *testing.T) {
	a := `{"query":"q","docs":[{"doc":"a","matches":2,"prep_ns":5,"eval_ns":7}],"wall_ns":10,"workers":2}`
	b := `{"query":"q","docs":[{"doc":"a","matches":2,"prep_ns":1,"eval_ns":9}],"wall_ns":99,"workers":1}`
	c := `{"query":"q","docs":[{"doc":"a","matches":3,"prep_ns":5,"eval_ns":7}],"wall_ns":10,"workers":2}`
	na, _ := normalize([]byte(a))
	nb, _ := normalize([]byte(b))
	nc, _ := normalize([]byte(c))
	if string(na) != string(nb) {
		t.Errorf("timing fields survived normalisation: %s vs %s", na, nb)
	}
	if string(na) == string(nc) {
		t.Error("normalisation hid a different answer")
	}
}
