package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/ingest"
	"repro/internal/store"
)

// node is one serving process's worth of program, built in-process from
// the constructors cmd/xcserve uses and served on a loopback listener.
type node struct {
	dir  string
	st   *store.Store
	ing  *ingest.Ingester
	cn   *cluster.Node
	ln   net.Listener
	srv  *http.Server
	done chan struct{} // closed when Serve returns
	url  string
}

// stack is one workload's serving stack plus what its set-up measured.
type stack struct {
	w     *workload
	nodes []*node

	setup     time.Duration // program work: open, ingest, flush, pack, replicate, warm
	ingestLat samples       // set-up POST /docs acks
	loadDur   time.Duration // the catalog load through the write path
	loaded    []nodeSnap    // every node's counters right after the load
	replDrain time.Duration // cluster: /flush ack until every node's replication lag is 0
	setupRec  *kitRecord    // traced: what the kit saw during set-up
	setupFS   fsCounts      // traced: file-system traffic of set-up
}

// newNode creates the node's store directory and its loopback listener.
func newNode(dir string) (*node, error) {
	n := &node{dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	n.ln, n.url, err = listen()
	return n, err
}

func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

func (n *node) serve(h http.Handler) {
	n.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	n.done = make(chan struct{})
	go func() {
		defer close(n.done)
		_ = n.srv.Serve(n.ln) // returns http.ErrServerClosed on shutdown
	}()
}

// stopServing shuts the listener down and waits for in-flight requests
// and the Serve goroutine.
func (n *node) stopServing() error {
	if n.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	<-n.done
	n.srv = nil
	return err
}

func storeOptions(k *kit, cacheBytes int64) store.Options {
	return store.Options{
		CacheBytes:         cacheBytes,
		SlowQueryThreshold: time.Second, // xcserve's -slow-query default
		SlowLogSize:        128,
		FS:                 k.FS(),
	}
}

func ingestOptions(w *workload, k *kit, st *store.Store, published func(string, bool)) ingest.Options {
	return ingest.Options{
		WALDir:          filepath.Join(st.Dir(), "wal"),
		Store:           st,
		Sync:            true, // xcserve's -wal-sync default: fsync every write
		MemTableBytes:   w.memtableBytes,
		CompactInterval: 15 * time.Second, // xcserve's -compact-interval default
		PackMinDocs:     w.packMinDocs,
		FS:              k.FS(),
		Published:       published,
	}
}

// do issues one request and returns its status and body.
func do(c *http.Client, method, u string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		return 0, nil, err
	}
	return doReq(c, req)
}

// post sends one write and fails unless it is acknowledged.
func post(c *http.Client, method, u string, body []byte) error {
	status, b, err := do(c, method, u, body)
	if err != nil {
		return err
	}
	if status/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, u, status, clip(b))
	}
	return nil
}

// buildStack sets the workload's serving stack up under root and
// returns it warm. Only program work counts toward stack.setup.
func buildStack(w *workload, cat *catalog, o *oracle, root string, k *kit) (*stack, error) {
	s := &stack{w: w}
	var fs0 fsCounts
	if k != nil {
		k.swap()
		fs0 = k.fs.counts()
	}
	t0 := time.Now()
	var err error
	if w.nodes > 1 {
		err = s.buildCluster(cat, root, k)
	} else {
		err = s.buildSingle(cat, root, k)
	}
	if err == nil {
		err = s.warm(cat, o)
	}
	s.setup = time.Since(t0)
	if k != nil {
		s.setupRec = k.swap()
		s.setupFS = k.fs.counts().sub(fs0)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// load ingests version 0 of every document through POST /docs on base
// and flushes, recording each acknowledgement's latency.
func (s *stack) load(cat *catalog, base string) error {
	c := newClient()
	defer c.CloseIdleConnections()
	t0 := time.Now()
	defer func() { s.loadDur = time.Since(t0) }()
	for _, d := range cat.Docs {
		t0 := time.Now()
		if err := post(c, http.MethodPost, base+"/docs/"+d.Name, d.XML); err != nil {
			return err
		}
		s.ingestLat = append(s.ingestLat, time.Since(t0))
	}
	return post(c, http.MethodPost, base+"/flush", nil)
}

// buildSingle brings one node up. Read workloads load the catalog
// through the write path, then reopen the directory read-only (packing
// it into bundles for read-cold); ingest-mixed keeps serving with the
// write path on.
func (s *stack) buildSingle(cat *catalog, root string, k *kit) error {
	n, err := newNode(filepath.Join(root, "node0"))
	if err != nil {
		return err
	}
	s.nodes = []*node{n}
	if n.st, err = store.Open(n.dir, storeOptions(k, store.DefaultCacheBytes)); err != nil {
		return err
	}
	if n.ing, err = ingest.Open(ingestOptions(s.w, k, n.st, nil)); err != nil {
		return err
	}
	h := store.NewHandler(n.st, store.ServerOptions{Ingest: k.ingestor(n.ing)})
	n.serve(k.entry(k.storeLayer(h), false))
	if err := s.load(cat, n.url); err != nil {
		return err
	}
	s.loaded = []nodeSnap{snapNode(n)}
	if s.w.writer {
		return nil
	}

	// Restart read-only, as xcserve without -ingest over the directory.
	if err := n.stopServing(); err != nil {
		return err
	}
	if n.ln, n.url, err = listen(); err != nil {
		return err
	}
	if err := n.ing.Close(); err != nil {
		return err
	}
	n.ing = nil
	if err := n.st.Close(); err != nil {
		return err
	}
	cache := int64(store.DefaultCacheBytes)
	if s.w.cacheBytes > 0 {
		cache = s.w.cacheBytes
	}
	if n.st, err = store.Open(n.dir, storeOptions(k, cache)); err != nil {
		return err
	}
	if s.w.pack {
		if _, err := n.st.PackLoose(store.PackOptions{}); err != nil {
			return err
		}
	}
	n.serve(k.entry(k.storeLayer(store.NewHandler(n.st, store.ServerOptions{})), false))
	return nil
}

// buildCluster brings three nodes up at the workload's replication
// factor, loads the catalog through node 0 and waits until every
// replica has landed. Nodes advertise fixed names that the peer client
// dials to their loopback listeners, so placement on the ring does not
// depend on which ports the listeners got.
func (s *stack) buildCluster(cat *catalog, root string, k *kit) error {
	names := make([]string, s.w.nodes)
	addrs := make(map[string]string, s.w.nodes)
	for i := range names {
		n, err := newNode(filepath.Join(root, fmt.Sprintf("node%d", i)))
		if err != nil {
			return err
		}
		s.nodes = append(s.nodes, n)
		names[i] = fmt.Sprintf("http://xcperf-node%d", i)
		addrs[fmt.Sprintf("xcperf-node%d:80", i)] = n.ln.Addr().String()
	}
	peers := http.DefaultTransport.(*http.Transport).Clone()
	var dialer net.Dialer
	peers.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if a, ok := addrs[addr]; ok {
			addr = a
		}
		return dialer.DialContext(ctx, network, addr)
	}
	// The client cluster.New would default to, over the name map.
	client := &http.Client{Timeout: 60 * time.Second, Transport: k.transport(peers)}
	for i, n := range s.nodes {
		var err error
		if n.st, err = store.Open(n.dir, storeOptions(k, store.DefaultCacheBytes)); err != nil {
			return err
		}
		n.cn, err = cluster.New(n.st, cluster.Config{
			Self: names[i], Peers: names, ReplicationFactor: s.w.rf, Client: client,
		})
		if err != nil {
			return err
		}
		if n.ing, err = ingest.Open(ingestOptions(s.w, k, n.st, n.cn.Published)); err != nil {
			return err
		}
		h := store.NewHandler(n.st, store.ServerOptions{Ingest: k.ingestor(n.ing)})
		n.serve(k.entry(n.cn.Handler(k.storeLayer(h), 100), true))
	}
	for _, n := range s.nodes {
		n.cn.Start()
	}
	if err := waitFor(20*time.Second, "cluster membership", func() bool {
		for _, n := range s.nodes {
			if len(n.cn.Membership().UpPeers()) != len(s.nodes)-1 {
				return false
			}
		}
		return true
	}); err != nil {
		return err
	}
	if err := s.load(cat, s.nodes[0].url); err != nil {
		return err
	}
	t0 := time.Now()
	err := waitFor(60*time.Second, "replication drain", func() bool {
		for _, n := range s.nodes {
			if n.cn.Lag() != 0 {
				return false
			}
		}
		return true
	})
	s.replDrain = time.Since(t0)
	for _, n := range s.nodes {
		s.loaded = append(s.loaded, snapNode(n))
	}
	return err
}

func waitFor(limit time.Duration, what string, ok func() bool) error {
	deadline := time.Now().Add(limit)
	for !ok() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// warm sends every catalog fan-out and every document's own queries
// once, checking each answer, so caches and compiled programs are in
// place before timing starts.
func (s *stack) warm(cat *catalog, o *oracle) error {
	c := newClient()
	defer c.CloseIdleConnections()
	i := 0
	for _, r := range allReads(cat) {
		base := s.nodes[i%len(s.nodes)].url
		i++
		status, body, err := do(c, http.MethodGet, base+readPath(cat, r, false), nil)
		if err != nil {
			return err
		}
		if _, err := check(o, cat, r, status, body); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// readPath renders a read request as a /query URL path.
func readPath(cat *catalog, r readReq, trace bool) string {
	v := url.Values{}
	v.Set("q", cat.Queries[r.Query].Text)
	if r.Kind == kindDoc {
		v.Set("doc", cat.Docs[r.Doc].Name)
	}
	if trace {
		v.Set("trace", "1")
	}
	return "/query?" + v.Encode()
}

// check verifies one read response against the oracle.
func check(o *oracle, cat *catalog, r readReq, status int, body []byte) (readResult, error) {
	if r.Kind == kindFanout {
		return o.checkFanout(r.Query, status, body)
	}
	return o.checkDoc(cat.Docs[r.Doc].Name, r.Query, status, body)
}

// compareReference checks the cluster against a single node: node 0's
// archives — it ingested every document — are copied into a plain
// store, and every distinct read is sent to the cluster (rotating over
// its nodes) and to that store. It returns how many responses differ
// once timing fields are normalised away. The reference store is
// closed again, so it holds no memory while the cluster is measured.
func (s *stack) compareReference(cat *catalog, dir string) (attempted, failed int, err error) {
	if err := copyArchives(s.nodes[0].dir, dir); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	ref, err := store.Open(dir, store.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer ref.Close()
	h := store.NewHandler(ref, store.ServerOptions{})
	c := newClient()
	defer c.CloseIdleConnections()
	for i, r := range allReads(cat) {
		path := readPath(cat, r, false)
		status, body, err := do(c, http.MethodGet, s.nodes[i%len(s.nodes)].url+path, nil)
		if err != nil {
			return attempted, failed, err
		}
		req, err := http.NewRequest(http.MethodGet, path, nil)
		if err != nil {
			return attempted, failed, err
		}
		rec := &recorder{header: http.Header{}, status: http.StatusOK}
		h.ServeHTTP(rec, req)
		attempted++
		a, errA := normalize(body)
		b, errB := normalize(rec.body.Bytes())
		if status != rec.status || errA != nil || errB != nil || !bytes.Equal(a, b) {
			failed++
			logf("cluster differs from single node on %s: %s vs %s", path, clip(a), clip(b))
		}
	}
	return attempted, failed, nil
}

// copyArchives copies the archives and sidecars of store directory src
// into dst.
func copyArchives(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() || !(strings.HasSuffix(e.Name(), store.Ext) || strings.HasSuffix(e.Name(), ".xcs")) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// recorder is a minimal in-memory http.ResponseWriter.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }
func (r *recorder) WriteHeader(status int)      { r.status = status }

// flush forces every node's write path to archives.
func (s *stack) flush() error {
	c := newClient()
	defer c.CloseIdleConnections()
	for _, n := range s.nodes {
		if n.ing == nil {
			continue
		}
		if err := post(c, http.MethodPost, n.url+"/flush", nil); err != nil {
			return err
		}
	}
	return nil
}

// storedBytes sums the archives, sidecars and bundles on disk over
// every node: the regular files at the top of each store directory
// (the WAL and the replication queue live in subdirectories).
func (s *stack) storedBytes() (int64, error) {
	var total int64
	for _, n := range s.nodes {
		ents, err := os.ReadDir(n.dir)
		if err != nil {
			return 0, err
		}
		for _, e := range ents {
			if !e.Type().IsRegular() {
				continue
			}
			info, err := e.Info()
			if err != nil {
				return 0, err
			}
			total += info.Size()
		}
	}
	return total, nil
}

// close tears the stack down in xcserve's shutdown order and removes
// its directories.
func (s *stack) close() error {
	var errs []error
	for _, n := range s.nodes {
		if n.cn != nil {
			n.cn.Stop()
		}
	}
	for _, n := range s.nodes {
		if n.srv != nil {
			errs = append(errs, n.stopServing())
		} else if n.ln != nil {
			_ = n.ln.Close() // never served, or already shut down by a restart
		}
	}
	for _, n := range s.nodes {
		if n.ing != nil {
			errs = append(errs, n.ing.Close())
		}
		if n.st != nil {
			errs = append(errs, n.st.Close())
		}
		errs = append(errs, os.RemoveAll(n.dir))
	}
	return errors.Join(errs...)
}
