package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/corpus"
	"repro/internal/store"
)

// encodeArchive compresses one XML document into archive bytes.
func encodeArchive(t *testing.T, doc []byte) []byte {
	t.Helper()
	a, err := container.Split(doc)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	var buf bytes.Buffer
	if err := codec.EncodeArchive(&buf, a); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// smallCorpora generates one modest document per corpus.
func smallCorpora(t *testing.T) map[string][]byte {
	t.Helper()
	docs := make(map[string][]byte)
	for _, c := range corpus.Catalog() {
		scale := c.DefaultScale / 40
		if scale < 3 {
			scale = 3
		}
		docs[c.Name] = c.Generate(scale, 7)
	}
	return docs
}

// swapHandler lets an httptest server start before the handler exists —
// the node needs the server's URL (its advertise address) to be built,
// and the handler needs the node.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "booting", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// testNode is one in-process cluster member.
type testNode struct {
	id      string // advertise URL: the node's identity on the ring
	url     string // where the test's own HTTP client reaches it
	st      *store.Store
	node    *Node
	srv     *httptest.Server
	swap    *swapHandler
	handler http.Handler // the real cluster handler, for un-partitioning
}

// startCluster boots an n-node in-process cluster with the documents
// pre-placed on their ring owners (rf copies each) and waits for the
// membership probers to converge.
func startCluster(t *testing.T, nNodes, rf int, docs map[string][]byte) []*testNode {
	t.Helper()
	return startClusterProbing(t, nNodes, rf, docs, 25*time.Millisecond)
}

// startClusterProbing is startCluster with an explicit probe interval.
// Every node's handler is installed before any prober starts, so the
// first probe round — run at Start — already converges membership and
// fetches every peer's catalog; a long interval then freezes that view.
//
// Nodes advertise fixed names (http://nodeN.test) that the peer client
// dials to the servers' loopback ports, so ring placement — which
// documents each node holds and is assigned — is the same on every run
// instead of hashing random ports.
func startClusterProbing(t *testing.T, nNodes, rf int, docs map[string][]byte, probe time.Duration) []*testNode {
	t.Helper()
	swaps := make([]*swapHandler, nNodes)
	ids := make([]string, nNodes)
	srvs := make([]*httptest.Server, nNodes)
	addrs := make(map[string]string, nNodes)
	for i := range swaps {
		swaps[i] = &swapHandler{}
		srvs[i] = httptest.NewServer(swaps[i])
		t.Cleanup(srvs[i].Close)
		ids[i] = fmt.Sprintf("http://node%d.test", i)
		addrs[fmt.Sprintf("node%d.test:80", i)] = srvs[i].Listener.Addr().String()
	}
	var dialer net.Dialer
	transport := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		if real, ok := addrs[addr]; ok {
			addr = real
		}
		return dialer.DialContext(ctx, network, addr)
	}}
	t.Cleanup(transport.CloseIdleConnections)
	client := &http.Client{Timeout: 60 * time.Second, Transport: transport}

	ring := Build(ids, 0)
	byID := make(map[string]int, nNodes)
	for i, id := range ids {
		byID[id] = i
	}
	dirs := make([]string, nNodes)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	for name, doc := range docs {
		raw := encodeArchive(t, doc)
		for _, owner := range ring.Owners(name, rf) {
			path := filepath.Join(dirs[byID[owner]], name+store.Ext)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	nodes := make([]*testNode, nNodes)
	for i := range nodes {
		st, err := store.Open(dirs[i], store.Options{})
		if err != nil {
			t.Fatalf("open store %d: %v", i, err)
		}
		t.Cleanup(func() { st.Close() })
		n, err := New(st, Config{
			Self:              ids[i],
			Peers:             ids,
			ReplicationFactor: rf,
			ProbeInterval:     probe,
			ScatterTimeout:    20 * time.Second,
			QueryTimeout:      20 * time.Second,
			Client:            client,
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		h := n.Handler(store.NewHandler(st, store.ServerOptions{}), 100)
		swaps[i].set(h)
		nodes[i] = &testNode{id: ids[i], url: srvs[i].URL, st: st, node: n, srv: srvs[i], swap: swaps[i], handler: h}
	}
	for _, tn := range nodes {
		tn.node.Start()
		t.Cleanup(tn.node.Stop)
	}

	waitFor(t, "membership convergence", func() bool {
		for _, tn := range nodes {
			if len(tn.node.Membership().UpPeers()) != nNodes-1 {
				return false
			}
		}
		return true
	})
	return nodes
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fetchFanout GETs /query?q= and decodes the fan-out response.
func fetchFanout(t *testing.T, base, query string) *store.FanoutResponse {
	t.Helper()
	resp, err := http.Get(base + "/query?q=" + url.QueryEscape(query))
	if err != nil {
		t.Fatalf("GET %s: %v", base, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s query %q: %s: %s", base, query, resp.Status, bytes.TrimSpace(body))
	}
	var fr store.FanoutResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatalf("decoding fan-out: %v", err)
	}
	return &fr
}

// normalizeFanout zeroes the timing fields (the only legitimately
// nondeterministic bytes) so responses can be compared byte for byte.
func normalizeFanout(fr *store.FanoutResponse) {
	fr.WallNanos = 0
	fr.Workers = 0
	fr.Trace = nil
	if fr.Docs == nil {
		fr.Docs = []store.QueryResponse{}
	}
	for i := range fr.Docs {
		fr.Docs[i].PrepNanos = 0
		fr.Docs[i].EvalNanos = 0
		fr.Docs[i].Trace = nil
		if fr.Docs[i].Paths == nil {
			fr.Docs[i].Paths = []string{}
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestClusterGoldenEqualsSingleNode is the acceptance gate: a 3-node
// RF=2 cluster answers every corpus query byte-identically (modulo
// timing fields) to a single node holding the whole catalog — first
// with every node up, then with one replica killed but not yet marked
// down (its documents must be hedged to their live holder), then with
// that replica marked down.
func TestClusterGoldenEqualsSingleNode(t *testing.T) {
	docs := smallCorpora(t)

	// The single-node reference holds every document.
	refDir := t.TempDir()
	for name, doc := range docs {
		if err := os.WriteFile(filepath.Join(refDir, name+store.Ext), encodeArchive(t, doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	refSt, err := store.Open(refDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer refSt.Close()
	refSrv := httptest.NewServer(store.NewHandler(refSt, store.ServerOptions{}))
	defer refSrv.Close()

	// Probing hourly, membership changes only when the test (or the
	// router's own failure handling) changes it.
	nodes := startClusterProbing(t, 3, 2, docs, time.Hour)
	queries := corpusQueries()

	runAll := func(tag string, before func()) (pruned, direct int) {
		t.Helper()
		for _, q := range queries {
			want := fetchFanout(t, refSrv.URL, q)
			before()
			got := fetchFanout(t, nodes[0].url, q)
			if len(got.Failed) != 0 {
				t.Errorf("%s: query %q degraded: %+v", tag, q, got.Failed)
			}
			normalizeFanout(want)
			normalizeFanout(got)
			wb, gb := mustJSON(t, want), mustJSON(t, got)
			if !bytes.Equal(wb, gb) {
				t.Errorf("%s: query %q diverged\n single: %s\ncluster: %s", tag, q, wb, gb)
			}
			pruned += got.Pruned
			direct += got.Direct
		}
		return pruned, direct
	}

	pruned, direct := runAll("full cluster", func() {})
	if pruned == 0 {
		t.Errorf("no document was synopsis-pruned across %d clustered queries", len(queries))
	}
	t.Logf("full cluster: %d pruned, %d direct across %d queries", pruned, direct, len(queries))

	// Kill one replica outright — no graceful shutdown — and query before
	// membership notices. The router marks the replica down as soon as a
	// scatter to it fails, so before every query the prober's last
	// (stale) verdict is restored: each query's first round asks the
	// dead replica, and RF=2 means its documents are hedged to their
	// other live holder without changing the answer. The victim is a
	// peer the assignment gives documents, so there is something to hedge.
	victim := busiestPeer(t, nodes, docs)
	victim.srv.CloseClientConnections()
	victim.srv.Close()
	mem := nodes[0].node.Membership()
	hedged := nodes[0].node.m.hedgedDocs.Value()
	runAll("replica killed, not yet marked down", func() { mem.record(victim.id, nil, nil) })
	if nodes[0].node.m.hedgedDocs.Value() == hedged {
		t.Errorf("no document was hedged away from the killed replica")
	}

	// Now marked down (by the router's failed scatter): its documents go
	// straight to the surviving owners.
	if mem.Up(victim.id) {
		t.Fatalf("router did not mark the killed replica down")
	}
	hedged = nodes[0].node.m.hedgedDocs.Value()
	runAll("one replica down", func() {})
	if got := nodes[0].node.m.hedgedDocs.Value(); got != hedged {
		t.Errorf("%d documents hedged with the dead replica known down; the assignment should avoid it", got-hedged)
	}
}

// TestReplicationShipsPublishedDocs pins the ingest→replica pipeline: a
// document published on one node lands on every ring owner, the pending
// queue drains to zero, and a published tombstone erases the replicas.
func TestReplicationShipsPublishedDocs(t *testing.T) {
	nodes := startCluster(t, 3, 2, nil)
	byURL := make(map[string]*testNode)
	for _, tn := range nodes {
		byURL[tn.id] = tn
	}

	c := corpus.Catalog()[0]
	raw := encodeArchive(t, c.Generate(3, 7))
	const name = "published-doc"
	if err := nodes[0].st.AcceptReplica(name, raw, nil); err != nil {
		t.Fatalf("landing the doc locally: %v", err)
	}
	nodes[0].node.Published(name, false)

	owners := nodes[0].node.Ring().Owners(name, 2)
	for _, owner := range owners {
		if owner == nodes[0].id {
			continue
		}
		tn := byURL[owner]
		waitFor(t, "replica on "+owner, func() bool { return tn.st.Has(name) })
	}
	waitFor(t, "replication queue drain", func() bool { return nodes[0].node.Lag() == 0 })

	// Tombstone: the published erase reaches the same owners.
	nodes[0].node.Published(name, true)
	for _, owner := range owners {
		if owner == nodes[0].id {
			continue
		}
		tn := byURL[owner]
		waitFor(t, "replica erased on "+owner, func() bool { return !tn.st.Has(name) })
	}
}

// TestReplicationRetriesThroughDownPeer pins the WAL + retry contract:
// a transfer owed to a dead peer stays pending (counted as lag) and is
// delivered when the peer comes back.
func TestReplicationRetriesThroughDownPeer(t *testing.T) {
	nodes := startCluster(t, 3, 3, nil) // RF=3: every node owns every doc
	victim := nodes[1]

	// Take the victim's HTTP face away (the process is "partitioned").
	victim.swap.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "partitioned", http.StatusBadGateway)
	}))
	waitFor(t, "victim probed down", func() bool {
		return !nodes[0].node.Membership().Up(victim.id)
	})

	c := corpus.Catalog()[0]
	raw := encodeArchive(t, c.Generate(3, 7))
	const name = "delayed-doc"
	if err := nodes[0].st.AcceptReplica(name, raw, nil); err != nil {
		t.Fatal(err)
	}
	nodes[0].node.Published(name, false)

	// The live peer gets its copy; the dead one stays owed.
	waitFor(t, "replica on live peer", func() bool { return nodes[2].st.Has(name) })
	waitFor(t, "lag counts the dead peer", func() bool { return nodes[0].node.Lag() == 1 })
	if victim.st.Has(name) {
		t.Fatalf("partitioned peer received the replica")
	}

	// Heal the partition: the up-transition hook must deliver the
	// pending transfer without a new publish.
	victim.swap.set(victim.handler)
	waitFor(t, "victim probed up", func() bool {
		return nodes[0].node.Membership().Up(victim.id)
	})
	waitFor(t, "pending transfer delivered", func() bool { return victim.st.Has(name) })
	waitFor(t, "lag drains", func() bool { return nodes[0].node.Lag() == 0 })
}

// TestScatterDegradesShedAndTimeout is the fan-out error-propagation
// regression test (the cluster face of the PR 9 degraded-serving
// contract): a peer answering 429 becomes per-document error entries
// with the Retry-After hint preserved and stays routable; a peer
// answering 504 becomes per-document timeout entries and is marked
// suspect. The request as a whole still succeeds with the local
// documents answered.
func TestScatterDegradesShedAndTimeout(t *testing.T) {
	// One real node plus two scripted peers.
	fake := func(docName string, scatter http.HandlerFunc) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, `{"status":"ok"}`)
		})
		mux.HandleFunc("/cluster/docs", func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(DocsList{Names: []string{docName}})
		})
		mux.HandleFunc("/cluster/query", scatter)
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return srv
	}
	shedSrv := fake("shed-doc", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, `{"error":"at capacity"}`, http.StatusTooManyRequests)
	})
	slowSrv := fake("slow-doc", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"deadline exceeded"}`, http.StatusGatewayTimeout)
	})

	c := corpus.Catalog()[0]
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "local-doc"+store.Ext),
		encodeArchive(t, c.Generate(3, 7)), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	swap := &swapHandler{}
	srv := httptest.NewServer(swap)
	defer srv.Close()
	n, err := New(st, Config{
		Self:              srv.URL,
		Peers:             []string{srv.URL, shedSrv.URL, slowSrv.URL},
		ReplicationFactor: 2,
		ProbeInterval:     25 * time.Millisecond,
		ScatterTimeout:    10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	swap.set(n.Handler(store.NewHandler(st, store.ServerOptions{}), 100))
	n.Start()
	defer n.Stop()

	waitFor(t, "fakes probed up with catalogs", func() bool {
		mem := n.Membership()
		return mem.Up(shedSrv.URL) && mem.Up(slowSrv.URL) &&
			len(mem.Names(shedSrv.URL)) == 1 && len(mem.Names(slowSrv.URL)) == 1
	})

	resp := fetchFanout(t, srv.URL, c.Queries[1])

	// The local document answered.
	if len(resp.Docs) != 1 || resp.Docs[0].Doc != "local-doc" {
		t.Fatalf("local docs = %+v, want just local-doc", resp.Docs)
	}
	// Both failed peers degraded into per-document entries.
	failed := make(map[string]store.FanoutError)
	for _, fe := range resp.Failed {
		failed[fe.Doc] = fe
	}
	shed, ok := failed["shed-doc"]
	if !ok {
		t.Fatalf("no error entry for the shed peer's doc: %+v", resp.Failed)
	}
	if shed.RetryAfter != "7" {
		t.Errorf("shed entry lost the Retry-After hint: %+v", shed)
	}
	if !strings.Contains(shed.Error, "429") {
		t.Errorf("shed entry error %q does not mention the shed", shed.Error)
	}
	slow, ok := failed["slow-doc"]
	if !ok {
		t.Fatalf("no error entry for the timed-out peer's doc: %+v", resp.Failed)
	}
	if !strings.Contains(slow.Error, "timed out") {
		t.Errorf("timeout entry error %q does not say timed out", slow.Error)
	}
	if shed.RetryAfter == slow.RetryAfter {
		t.Errorf("timeout entry must not carry a Retry-After hint: %+v", slow)
	}

	// Health verdicts: a shedding peer answered (still routable), a
	// timing-out peer is suspect.
	if !n.Membership().Up(shedSrv.URL) {
		t.Errorf("shed peer was marked down; 429 means alive")
	}
	if n.Membership().Up(slowSrv.URL) {
		t.Errorf("timed-out peer still routable; 504 must mark it suspect")
	}
}

// TestScatterDropsInvalidPeerDocNames pins the router against a buggy
// or version-skewed peer: a scatter answer naming a document no catalog
// could hold (Ring.Owners panics on unvalidated names) is dropped
// per-document — the valid rest of the answer and the request itself
// still succeed.
func TestScatterDropsInvalidPeerDocNames(t *testing.T) {
	c := corpus.Catalog()[0]
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/cluster/docs", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(DocsList{Names: []string{"peer-doc"}})
	})
	mux.HandleFunc("/cluster/query", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(store.FanoutResponse{Docs: []store.QueryResponse{
			{Doc: "../escape", Paths: []string{}},
			{Doc: "peer-doc", Paths: []string{}},
		}})
	})
	buggy := httptest.NewServer(mux)
	defer buggy.Close()

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "local-doc"+store.Ext),
		encodeArchive(t, c.Generate(3, 7)), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	swap := &swapHandler{}
	srv := httptest.NewServer(swap)
	defer srv.Close()
	n, err := New(st, Config{
		Self:              srv.URL,
		Peers:             []string{srv.URL, buggy.URL},
		ReplicationFactor: 2,
		ProbeInterval:     25 * time.Millisecond,
		ScatterTimeout:    10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	swap.set(n.Handler(store.NewHandler(st, store.ServerOptions{}), 100))
	n.Start()
	defer n.Stop()
	waitFor(t, "buggy peer probed up", func() bool { return n.Membership().Up(buggy.URL) })

	resp := fetchFanout(t, srv.URL, c.Queries[1])
	got := make(map[string]bool, len(resp.Docs))
	for _, qr := range resp.Docs {
		got[qr.Doc] = true
	}
	if got["../escape"] {
		t.Errorf("invalid peer doc name survived the merge: %+v", resp.Docs)
	}
	if !got["local-doc"] || !got["peer-doc"] {
		t.Errorf("valid documents missing from the merged answer: %+v", resp.Docs)
	}
}

// TestSingleDocForwarding pins the one-document path: a node that does
// not hold the document forwards the query once to a live owner, and
// the loop-guard header stops a second hop.
func TestSingleDocForwarding(t *testing.T) {
	docs := smallCorpora(t)
	nodes := startCluster(t, 3, 1, docs) // RF=1: exactly one owner per doc

	// Find a document whose owner is NOT nodes[0], so the query must
	// forward.
	ring := nodes[0].node.Ring()
	var name, owner string
	for dn := range docs {
		if o := ring.Owners(dn, 1)[0]; o != nodes[0].id {
			name, owner = dn, o
			break
		}
	}
	if name == "" {
		t.Fatalf("every document landed on node 0; ring is broken")
	}
	if nodes[0].st.Has(name) {
		t.Fatalf("node 0 unexpectedly holds %s", name)
	}

	var q string
	for _, c := range corpus.Catalog() {
		if c.Name == name {
			q = c.Queries[1]
		}
	}
	resp, err := http.Get(nodes[0].url + "/query?doc=" + url.QueryEscape(name) + "&q=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded query: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var qr store.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("decoding forwarded response: %v", err)
	}
	if qr.Doc != name || qr.Matches == 0 {
		t.Fatalf("forwarded answer from owner %s = doc %q matches %d, want %q with matches", owner, qr.Doc, qr.Matches, name)
	}
}
