package main

// The instrumentation kit: outside-in probes for the traced run. Each
// piece plugs into a public seam of the program — an http.Handler
// wrapper, the cluster's http.Client, the store.Ingestor the HTTP face
// drives, and the fault.FS every durable path takes — so the program
// itself carries no benchmark code. A nil *kit is the untraced
// configuration: every wrapper returns its argument unchanged.

import (
	"context"
	"io"
	"io/fs"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/ingest"
	"repro/internal/store"
)

// idHeader carries the load generator's request id to the entry node's
// handler wrapper, which joins the server-side span to the client-side
// latency.
const idHeader = "X-Xcperf-Id"

type kit struct {
	fs *countingFS

	mu  sync.Mutex
	rec *kitRecord
}

// kitRecord is everything the kit recorded during one phase (set-up or
// the measured window).
type kitRecord struct {
	entry       map[string]time.Duration // request id -> entry-node handler span
	storeSpans  samples                  // store handler, GET /query
	routerSpans samples                  // cluster fan-outs at the entry node
	mergeSpans  samples                  // router span minus its slowest peer RPC
	peerRPCs    samples                  // POST /cluster/query round trips
	replicated  int64                    // PUT /cluster/replicate body bytes
	adds        samples                  // Ingestor.Add calls
	addBytes    int64
	deletes     int
}

func newKit() *kit {
	return &kit{fs: &countingFS{inner: fault.OS}, rec: newKitRecord()}
}

func newKitRecord() *kitRecord { return &kitRecord{entry: make(map[string]time.Duration)} }

// swap ends the current phase: it returns what was recorded so far and
// starts an empty record.
func (k *kit) swap() *kitRecord {
	k.mu.Lock()
	defer k.mu.Unlock()
	r := k.rec
	k.rec = newKitRecord()
	return r
}

func (k *kit) with(fn func(r *kitRecord)) {
	k.mu.Lock()
	fn(k.rec)
	k.mu.Unlock()
}

// FS returns the file system the store and the write path should use.
func (k *kit) FS() fault.FS {
	if k == nil {
		return nil
	}
	return k.fs
}

// fanoutKey carries a cluster fan-out's record from the entry handler
// into the peer RPCs its router issues (the router derives its request
// contexts from the inbound request's).
type fanoutKey struct{}

type fanoutRec struct {
	mu      sync.Mutex
	slowest time.Duration
}

// entry wraps a node's outermost handler: it times every request that
// carries a load-generator id, and on cluster nodes times each
// catalog fan-out as the router's span.
func (k *kit) entry(h http.Handler, cluster bool) http.Handler {
	if k == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var fr *fanoutRec
		if cluster && r.URL.Path == "/query" && r.URL.Query().Get("doc") == "" {
			fr = &fanoutRec{}
			r = r.WithContext(context.WithValue(r.Context(), fanoutKey{}, fr))
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		id := r.Header.Get(idHeader)
		k.with(func(rec *kitRecord) {
			if id != "" {
				rec.entry[id] = d
			}
			if fr != nil {
				rec.routerSpans = append(rec.routerSpans, d)
				rec.mergeSpans = append(rec.mergeSpans, d-fr.slowest)
			}
		})
	})
}

// storeLayer wraps the store's own HTTP handler and times its /query
// requests.
func (k *kit) storeLayer(h http.Handler) http.Handler {
	if k == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		if r.URL.Path == "/query" {
			d := time.Since(t0)
			k.with(func(rec *kitRecord) { rec.storeSpans = append(rec.storeSpans, d) })
		}
	})
}

// transport returns the RoundTripper cluster peers should call each
// other through: next itself untraced, else a wrapper that times every
// scatter RPC and counts replicated bytes.
func (k *kit) transport(next http.RoundTripper) http.RoundTripper {
	if k == nil {
		return next
	}
	return &tracingTransport{k: k, next: next}
}

type tracingTransport struct {
	k    *kit
	next http.RoundTripper
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	switch {
	case req.URL.Path == "/cluster/replicate" && req.Method == http.MethodPut:
		t.k.with(func(rec *kitRecord) { rec.replicated += req.ContentLength })
	case req.URL.Path == "/cluster/query":
		t0 := time.Now()
		resp, err := t.next.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		fr, _ := req.Context().Value(fanoutKey{}).(*fanoutRec)
		resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
			d := time.Since(t0)
			t.k.with(func(rec *kitRecord) { rec.peerRPCs = append(rec.peerRPCs, d) })
			if fr != nil {
				fr.mu.Lock()
				if d > fr.slowest {
					fr.slowest = d
				}
				fr.mu.Unlock()
			}
		}}
		return resp, nil
	}
	return t.next.RoundTrip(req)
}

// timedBody calls done once, when the caller closes the response body:
// the RPC's span ends when its answer has been read.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// ingestor returns the write API the HTTP face should drive: ing
// itself untraced, else a decorator timing every Add. The decorator
// embeds the Ingester, so its readiness face still reaches /readyz.
func (k *kit) ingestor(ing *ingest.Ingester) store.Ingestor {
	if k == nil {
		return ing
	}
	return &timedIngestor{Ingester: ing, k: k}
}

type timedIngestor struct {
	*ingest.Ingester
	k *kit
}

func (t *timedIngestor) Add(name string, xml []byte) error {
	t0 := time.Now()
	err := t.Ingester.Add(name, xml)
	d := time.Since(t0)
	t.k.with(func(rec *kitRecord) {
		rec.adds = append(rec.adds, d)
		rec.addBytes += int64(len(xml))
	})
	return err
}

func (t *timedIngestor) Delete(name string) error {
	err := t.Ingester.Delete(name)
	t.k.with(func(rec *kitRecord) { rec.deletes++ })
	return err
}

// fsCounts is a snapshot of the counting file system's totals.
type fsCounts struct {
	ReadBytes, WriteBytes int64
	Reads, Writes, Syncs  int64
}

func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{a.ReadBytes - b.ReadBytes, a.WriteBytes - b.WriteBytes, a.Reads - b.Reads, a.Writes - b.Writes, a.Syncs - b.Syncs}
}

// countingFS is a fault.FS that counts the bytes and calls passing
// through it to the inner file system.
type countingFS struct {
	inner fault.FS

	readBytes, writeBytes atomic.Int64
	reads, writes, syncs  atomic.Int64
}

func (c *countingFS) counts() fsCounts {
	return fsCounts{c.readBytes.Load(), c.writeBytes.Load(), c.reads.Load(), c.writes.Load(), c.syncs.Load()}
}

func (c *countingFS) read(n int) {
	c.reads.Add(1)
	c.readBytes.Add(int64(n))
}

func (c *countingFS) wrote(n int) {
	c.writes.Add(1)
	c.writeBytes.Add(int64(n))
}

func (c *countingFS) wrap(f fault.File, err error) (fault.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, c: c}, nil
}

func (c *countingFS) Open(name string) (fault.File, error) { return c.wrap(c.inner.Open(name)) }

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	return c.wrap(c.inner.OpenFile(name, flag, perm))
}

func (c *countingFS) CreateTemp(dir, pattern string) (fault.File, error) {
	return c.wrap(c.inner.CreateTemp(dir, pattern))
}

func (c *countingFS) ReadFile(name string) ([]byte, error) {
	b, err := c.inner.ReadFile(name)
	c.read(len(b))
	return b, err
}

func (c *countingFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	err := c.inner.WriteFile(name, data, perm)
	if err == nil {
		c.wrote(len(data))
	}
	return err
}

func (c *countingFS) Rename(oldpath, newpath string) error { return c.inner.Rename(oldpath, newpath) }
func (c *countingFS) Remove(name string) error             { return c.inner.Remove(name) }
func (c *countingFS) Truncate(name string, size int64) error {
	return c.inner.Truncate(name, size)
}
func (c *countingFS) Stat(name string) (os.FileInfo, error)      { return c.inner.Stat(name) }
func (c *countingFS) ReadDir(name string) ([]fs.DirEntry, error) { return c.inner.ReadDir(name) }
func (c *countingFS) MkdirAll(path string, perm os.FileMode) error {
	return c.inner.MkdirAll(path, perm)
}

type countingFile struct {
	fault.File
	c *countingFS
}

func (f *countingFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.c.read(n)
	return n, err
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.c.read(n)
	return n, err
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.c.wrote(n)
	return n, err
}

func (f *countingFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.c.wrote(n)
	return n, err
}

func (f *countingFile) Sync() error {
	f.c.syncs.Add(1)
	return f.File.Sync()
}
