package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/store"
)

// TestScatterReportsDownHoldersDocs is the regression test for documents
// vanishing with their holder: at RF=1, once membership marks the only
// holder of some documents down, a fan-out must list each of them as a
// failed entry naming that peer — never answer without them.
func TestScatterReportsDownHoldersDocs(t *testing.T) {
	docs := smallCorpora(t)
	nodes := startCluster(t, 3, 1, docs)

	// Kill the peer holding the most documents.
	victim := nodes[1]
	if nodes[2].st.Len() > victim.st.Len() {
		victim = nodes[2]
	}
	lost := victim.st.Names()
	if len(lost) == 0 {
		t.Fatalf("neither peer holds a document; ring is broken")
	}
	victim.srv.CloseClientConnections()
	victim.srv.Close()
	waitFor(t, "victim marked down", func() bool {
		return !nodes[0].node.Membership().Up(victim.id)
	})

	resp := fetchFanout(t, nodes[0].url, corpus.Catalog()[0].Queries[1])
	failed := make(map[string]store.FanoutError, len(resp.Failed))
	for _, fe := range resp.Failed {
		failed[fe.Doc] = fe
	}
	for _, doc := range lost {
		fe, ok := failed[doc]
		if !ok {
			t.Errorf("document %s of the down holder vanished: no failed entry", doc)
			continue
		}
		if !strings.Contains(fe.Error, "no live holder") || !strings.Contains(fe.Error, victim.id) {
			t.Errorf("failed entry for %s = %q, want \"no live holder\" naming %s", doc, fe.Error, victim.id)
		}
	}
	if len(resp.Failed) != len(lost) {
		t.Errorf("%d failed entries, want exactly the %d lost documents: %+v", len(resp.Failed), len(lost), resp.Failed)
	}
	if got, want := len(resp.Docs)+len(resp.Failed), len(docs); got != want {
		t.Errorf("answered %d + failed %d documents, want the whole catalog of %d", len(resp.Docs), len(resp.Failed), want)
	}
}

// corpusQueries lists all 40 corpus queries.
func corpusQueries() []string {
	var qs []string
	for _, c := range corpus.Catalog() {
		qs = append(qs, c.Queries[:]...)
	}
	return qs
}

// evaluations sums Stats().Queries over nodes: per-document evaluations.
func evaluations(nodes []*testNode) uint64 {
	var n uint64
	for _, tn := range nodes {
		n += tn.st.Stats().Queries
	}
	return n
}

// TestScatterEvaluatesEachDocOnce pins work-once scatter: at RF=2 every
// document has two holders, yet across all corpus queries the cluster
// evaluates each answered document exactly once — the evaluations all
// nodes count equal the per-document results neither pruned nor
// answered from the synopsis, not twice that.
func TestScatterEvaluatesEachDocOnce(t *testing.T) {
	nodes := startCluster(t, 3, 2, smallCorpora(t))
	before := evaluations(nodes)
	want := uint64(0)
	for _, q := range corpusQueries() {
		resp := fetchFanout(t, nodes[0].url, q)
		if len(resp.Failed) != 0 {
			t.Fatalf("query %q degraded: %+v", q, resp.Failed)
		}
		for _, qr := range resp.Docs {
			if !qr.Pruned && !qr.Direct {
				want++
			}
		}
	}
	if got := evaluations(nodes) - before; got != want {
		t.Errorf("cluster evaluated %d documents for %d scanned results; want exactly one evaluation each", got, want)
	}
	if want == 0 {
		t.Errorf("no query scanned a document; the check is vacuous")
	}
}

// TestScatterAnswersDocsLandedAfterProbe pins why Skip is an exclusion
// list: a document that lands on peers after the router's last
// membership probe is unknown to the assignment, yet the next fan-out
// answers it — exactly once, although both holders evaluated it.
func TestScatterAnswersDocsLandedAfterProbe(t *testing.T) {
	docs := smallCorpora(t)
	nodes := startClusterProbing(t, 3, 2, docs, time.Hour)
	c := corpus.Catalog()[0]
	const name = "fresh-doc"
	raw := encodeArchive(t, c.Generate(3, 11))
	for _, tn := range nodes[1:] {
		if err := tn.st.AcceptReplica(name, raw, nil); err != nil {
			t.Fatal(err)
		}
		for _, known := range nodes[0].node.Membership().Names(tn.id) {
			if known == name {
				t.Fatalf("router already knows %s on %s; the probe was not stale", name, tn.id)
			}
		}
	}

	deduped := nodes[0].node.m.dedupedDocs.Value()
	resp := fetchFanout(t, nodes[0].url, c.Queries[1])
	if len(resp.Failed) != 0 {
		t.Fatalf("fan-out degraded: %+v", resp.Failed)
	}
	seen := 0
	for _, qr := range resp.Docs {
		if qr.Doc == name {
			seen++
			if qr.Matches == 0 {
				t.Errorf("%s answered with no matches", name)
			}
		}
	}
	if seen != 1 {
		t.Fatalf("%s answered %d times, want exactly once", name, seen)
	}
	if len(resp.Docs) != len(docs)+1 {
		t.Errorf("answered %d documents, want %d", len(resp.Docs), len(docs)+1)
	}
	if nodes[0].node.m.dedupedDocs.Value() == deduped {
		t.Errorf("no duplicate was discarded, yet both holders evaluated %s", name)
	}
}

// busiestPeer returns the peer (not nodes[0], the router) that the
// all-up assignment gives the most documents: the first ring owner of
// each.
func busiestPeer(t *testing.T, nodes []*testNode, docs map[string][]byte) *testNode {
	t.Helper()
	assigned := make(map[string]int)
	for name := range docs {
		assigned[nodes[0].node.Ring().Owners(name, 2)[0]]++
	}
	busiest := nodes[1]
	for _, tn := range nodes[2:] {
		if assigned[tn.id] > assigned[busiest.id] {
			busiest = tn
		}
	}
	if assigned[busiest.id] == 0 {
		t.Fatalf("the ring assigns every document to the router")
	}
	return busiest
}

// shedding wraps a node's handler so its scatter endpoint answers status
// (429 with a Retry-After hint, or 504) while everything else — health
// probes, catalog listings — keeps working.
func shedding(inner http.Handler, status int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/cluster/query" {
			inner.ServeHTTP(w, r)
			return
		}
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "3")
		}
		http.Error(w, `{"error":"injected"}`, status)
	})
}

// TestScatterHedgesShedAndTimedOutPeer pins the hedge: when a peer sheds
// (429) or times out (504) on documents a live replica also holds, the
// replica answers them in the same scatter and the response is byte-equal
// to the healthy cluster's, with no failed entries.
func TestScatterHedgesShedAndTimedOutPeer(t *testing.T) {
	docs := smallCorpora(t)
	nodes := startCluster(t, 3, 2, docs)

	faulty := busiestPeer(t, nodes, docs)

	queries := corpusQueries()
	want := make([][]byte, len(queries))
	for i, q := range queries {
		fr := fetchFanout(t, nodes[0].url, q)
		normalizeFanout(fr)
		want[i] = mustJSON(t, fr)
	}

	mem := nodes[0].node.Membership()
	for _, status := range []int{http.StatusTooManyRequests, http.StatusGatewayTimeout} {
		faulty.swap.set(shedding(faulty.handler, status))
		waitFor(t, "faulty peer routable", func() bool { return mem.Up(faulty.id) })
		hedged := nodes[0].node.m.hedgedDocs.Value()
		for i, q := range queries {
			fr := fetchFanout(t, nodes[0].url, q)
			if len(fr.Failed) != 0 {
				t.Errorf("status %d: query %q degraded although a replica holds every document: %+v", status, q, fr.Failed)
			}
			normalizeFanout(fr)
			if got := mustJSON(t, fr); !bytes.Equal(got, want[i]) {
				t.Errorf("status %d: query %q diverged\n healthy: %s\n  hedged: %s", status, q, want[i], got)
			}
		}
		if nodes[0].node.m.hedgedDocs.Value() == hedged {
			t.Errorf("status %d: no document was hedged", status)
		}
		faulty.swap.set(faulty.handler)
	}
}

// fakeMember serves what the membership prober reads of a peer holding
// doc — health and catalog — and answers scatters with query.
func fakeMember(doc string, query http.HandlerFunc) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/cluster/docs", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(DocsList{Names: []string{doc}})
	})
	mux.HandleFunc("/cluster/query", query)
	return mux
}

// answering is a scatter handler that answers with resp, minus the
// documents the request's Skip list excludes.
func answering(resp store.FanoutResponse) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var pq PeerQuery
		if err := json.NewDecoder(r.Body).Decode(&pq); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out := store.FanoutResponse{Docs: []store.QueryResponse{}}
		for _, qr := range resp.Docs {
			if !slices.Contains(pq.Skip, qr.Doc) {
				out.Docs = append(out.Docs, qr)
			}
		}
		for _, fe := range resp.Failed {
			if !slices.Contains(pq.Skip, fe.Doc) {
				out.Failed = append(out.Failed, fe)
			}
		}
		json.NewEncoder(w).Encode(out)
	}
}

// nameOrdered returns a document name the ring prefers first before
// second.
func nameOrdered(ring *Ring, first, second string) string {
	for i := 0; ; i++ {
		name := fmt.Sprintf("doc-%d", i)
		owners := ring.Owners(name, ring.Len())
		if slices.Index(owners, first) < slices.Index(owners, second) {
			return name
		}
	}
}

// startRouter boots the cluster node served by srv over a store of dir
// with the given peers, and waits until every peer is probed up with
// its catalog. The probe interval is long, so that view stays frozen:
// only the router's own verdicts change membership afterwards.
func startRouter(t *testing.T, srv *httptest.Server, swap *swapHandler, dir string, peers []string, rf int, timeout time.Duration) *Node {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	n, err := New(st, Config{
		Self:              srv.URL,
		Peers:             append([]string{srv.URL}, peers...),
		ReplicationFactor: rf,
		ProbeInterval:     time.Hour,
		ScatterTimeout:    timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	swap.set(n.Handler(store.NewHandler(st, store.ServerOptions{}), 100))
	n.Start()
	t.Cleanup(n.Stop)
	waitFor(t, "peers probed up with their catalogs", func() bool {
		for _, p := range peers {
			if !n.Membership().Up(p) || len(n.Membership().Names(p)) == 0 {
				return false
			}
		}
		return true
	})
	return n
}

// servers starts n httptest servers whose handlers are installed later.
func servers(t *testing.T, n int) ([]*httptest.Server, []*swapHandler) {
	srvs := make([]*httptest.Server, n)
	swaps := make([]*swapHandler, n)
	for i := range srvs {
		swaps[i] = &swapHandler{}
		srvs[i] = httptest.NewServer(swaps[i])
		t.Cleanup(srvs[i].Close)
	}
	return srvs, swaps
}

// TestScatterHedgesDocsAPeerFailsOrOmits pins the per-document hedge: a
// target that answers but reports its assigned document as failed (say
// a corrupt copy), or does not return it at all, has that document
// re-asked of the next live holder — here the router itself — and the
// response carries it with no failed entry.
func TestScatterHedgesDocsAPeerFailsOrOmits(t *testing.T) {
	c := corpus.Catalog()[0]
	for _, tc := range []struct {
		name   string
		answer func(doc string) store.FanoutResponse
	}{
		{"fails", func(doc string) store.FanoutResponse {
			return store.FanoutResponse{Docs: []store.QueryResponse{},
				Failed: []store.FanoutError{{Doc: doc, Error: "corrupt copy"}}}
		}},
		{"omits", func(string) store.FanoutResponse {
			return store.FanoutResponse{Docs: []store.QueryResponse{}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srvs, swaps := servers(t, 2)
			srv, peer := srvs[0], srvs[1]
			// A name whose first ring owner is the peer, so the router
			// assigns it there although it holds a copy too.
			doc := nameOrdered(Build([]string{srv.URL, peer.URL}, 0), peer.URL, srv.URL)
			swaps[1].set(fakeMember(doc, answering(tc.answer(doc))))
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, doc+store.Ext), encodeArchive(t, c.Generate(3, 7)), 0o644); err != nil {
				t.Fatal(err)
			}
			n := startRouter(t, srv, swaps[0], dir, []string{peer.URL}, 2, 10*time.Second)

			hedged := n.m.hedgedDocs.Value()
			resp := fetchFanout(t, srv.URL, c.Queries[1])
			if len(resp.Failed) != 0 {
				t.Errorf("degraded although the router holds a copy: %+v", resp.Failed)
			}
			if len(resp.Docs) != 1 || resp.Docs[0].Doc != doc || resp.Docs[0].Matches == 0 {
				t.Errorf("answered %+v, want %s with matches", resp.Docs, doc)
			}
			if n.m.hedgedDocs.Value() == hedged {
				t.Errorf("%s was not hedged", doc)
			}
		})
	}
}

// TestScatterKeepsEarlierHolderFailure pins that an omission never erases
// a failure: when the document's first holder sheds (429) and the next
// holder, re-asked, no longer has it, the first holder still holds it —
// so the response lists it as failed with the shed peer's Retry-After
// instead of dropping it as deleted.
func TestScatterKeepsEarlierHolderFailure(t *testing.T) {
	srvs, swaps := servers(t, 3)
	srv, shed, stale := srvs[0], srvs[1], srvs[2]
	doc := nameOrdered(Build([]string{srv.URL, shed.URL, stale.URL}, 0), shed.URL, stale.URL)
	swaps[1].set(fakeMember(doc, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3")
		http.Error(w, `{"error":"injected"}`, http.StatusTooManyRequests)
	}))
	swaps[2].set(fakeMember(doc, answering(store.FanoutResponse{Docs: []store.QueryResponse{}})))
	n := startRouter(t, srv, swaps[0], t.TempDir(), []string{shed.URL, stale.URL}, 3, 10*time.Second)

	hedged := n.m.hedgedDocs.Value()
	resp := fetchFanout(t, srv.URL, corpus.Catalog()[0].Queries[1])
	if n.m.hedgedDocs.Value() == hedged {
		t.Errorf("%s was not hedged to %s", doc, stale.URL)
	}
	if len(resp.Docs) != 0 || len(resp.Failed) != 1 {
		t.Fatalf("answered %+v, failed %+v; want exactly one failed entry for %s", resp.Docs, resp.Failed, doc)
	}
	fe := resp.Failed[0]
	if fe.Doc != doc || !strings.Contains(fe.Error, shed.URL) || fe.RetryAfter != "3" {
		t.Errorf("failed entry %+v, want %s shed by %s with Retry-After 3", fe, doc, shed.URL)
	}
}

// TestScatterSlowPeerDoesNotDownItsHedge pins what the scatter deadline
// ends: a peer that hangs past it uses up the whole fan-out, so its
// document is not re-asked of the live replica with no time left. The
// failed entry names the slow peer, the slow peer is marked down, and
// the replica — never given a fair chance to answer — stays up.
func TestScatterSlowPeerDoesNotDownItsHedge(t *testing.T) {
	srvs, swaps := servers(t, 3)
	srv, slow, replica := srvs[0], srvs[1], srvs[2]
	doc := nameOrdered(Build([]string{srv.URL, slow.URL, replica.URL}, 0), slow.URL, replica.URL)
	release := make(chan struct{})
	defer close(release) // before the servers close: they wait for handlers
	swaps[1].set(fakeMember(doc, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	swaps[2].set(fakeMember(doc, answering(store.FanoutResponse{
		Docs: []store.QueryResponse{{Doc: doc, Matches: 1}}})))
	n := startRouter(t, srv, swaps[0], t.TempDir(), []string{slow.URL, replica.URL}, 3, 300*time.Millisecond)

	resp := fetchFanout(t, srv.URL, corpus.Catalog()[0].Queries[1])
	if len(resp.Docs) != 0 || len(resp.Failed) != 1 {
		t.Fatalf("answered %+v, failed %+v; want exactly one failed entry for %s", resp.Docs, resp.Failed, doc)
	}
	if fe := resp.Failed[0]; fe.Doc != doc || !strings.Contains(fe.Error, slow.URL) || !strings.Contains(fe.Error, "timed out") {
		t.Errorf("failed entry %+v, want %s timed out on %s", fe, doc, slow.URL)
	}
	if !n.Membership().Up(replica.URL) {
		t.Errorf("replica %s marked down for the slow peer's timeout", replica.URL)
	}
	if n.Membership().Up(slow.URL) {
		t.Errorf("slow peer %s still up after timing out", slow.URL)
	}
}
