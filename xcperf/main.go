// Command xcperf is the repository's end-to-end benchmark. It generates
// a seeded catalog from internal/corpus, builds the serving stack from
// the constructors cmd/xcserve uses on loopback listeners, drives it
// over HTTP, checks every answer against the uncompressed baseline
// evaluator, and prints one JSON result line:
//
//	xcperf --workload read-warm --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 builds the stack
// again with the instrumentation kit attached and reports per-layer
// metrics instead. See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/container"
	"repro/internal/store"
)

// workload is one traffic mix and the stack it runs against.
type workload struct {
	name      string
	perCorpus int     // documents per corpus
	scale     float64 // size factor on each corpus's default scale
	readers   int     // closed-loop read clients
	nodes, rf int

	cacheShare float64 // > 0: cache budget as this share of the decoded catalog
	cacheBytes int64   // derived from cacheShare
	pack       bool    // pack the catalog into bundles at set-up

	writer        bool   // open-loop writer on node 0
	writable      int    // documents per corpus the writer replaces
	readOnly      string // corpus the writer leaves alone
	versions      int    // extra versions of each writable document
	writeRate     float64
	deleteEvery   int   // about one write in deleteEvery deletes first
	memtableBytes int64 // write-path seal threshold (0: the default)
	packMinDocs   int   // write-path packing (0: off)
}

var workloads = []*workload{
	{name: "read-warm", perCorpus: 4, scale: 0.2, readers: 2, nodes: 1},
	{name: "read-cold", perCorpus: 6, scale: 0.2, readers: 2, nodes: 1, cacheShare: 0.25, pack: true},
	// TreeBank writes cost about ten times any other corpus's; with them
	// in the writer's set the write latencies split into two modes whose
	// percentiles do not repeat. The set-up's catalog load still writes
	// TreeBank on every workload.
	{name: "ingest-mixed", perCorpus: 4, scale: 0.2, readers: 1, nodes: 1,
		writer: true, writable: 1, readOnly: "TreeBank", versions: 2, writeRate: 10, deleteEvery: 20,
		memtableBytes: 256 << 10, packMinDocs: 4},
	{name: "cluster-rf2", perCorpus: 4, scale: 0.2, readers: 2, nodes: 3, rf: 2},
}

// setupRuns is how many times an untraced run sets its stack up; setup_s
// is their median and the last one is measured.
const setupRuns = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xcperf: "+format+"\n", args...)
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("xcperf", flag.ContinueOnError)
	var (
		name    = fl.String("workload", "read-warm", "workload: "+workloadNames())
		seed    = fl.Uint64("seed", 1, "workload seed: the same seed gives the same documents and request streams")
		seconds = fl.Float64("seconds", 10, "length of the measured window")
		trace   = fl.Int("trace", 0, "1: traced run reporting per-layer metrics")
		workdir = fl.String("workdir", ".bench_build/xcperf-work", "scratch directory for store directories")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		logf("bad arguments: workload %q (want %s), seconds %v, trace %d", *name, workloadNames(), *seconds, *trace)
		return 2
	}
	root := filepath.Join(*workdir, fmt.Sprintf("%d", os.Getpid()))
	defer os.RemoveAll(root)
	dur := time.Duration(*seconds * float64(time.Second))
	var (
		res *result
		err error
	)
	if *trace == 1 {
		res, err = runTraced(w, *seed, dur, root)
	} else {
		res, err = runUntraced(w, *seed, dur, root)
	}
	if err != nil {
		logf("%s: %v", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// prepare generates the catalog and the oracle's answers, and sizes the
// cache of a cold workload. None of this is program set-up.
func prepare(w *workload, seed uint64) (*catalog, *oracle, error) {
	t0 := time.Now()
	cat := newCatalog(seed, w.perCorpus, w.scale, w.writable, w.versions, w.readOnly)
	o, err := newOracle(cat, 2)
	if err != nil {
		return nil, nil, err
	}
	if w.cacheShare > 0 {
		decoded, err := decodedBytes(cat)
		if err != nil {
			return nil, nil, err
		}
		w.cacheBytes = int64(float64(decoded) * w.cacheShare)
		logf("%s: decoded catalog %.1f MiB, cache budget %.1f MiB", w.name, float64(decoded)/(1<<20), float64(w.cacheBytes)/(1<<20))
	}
	logf("%s: %d documents, %.1f MiB XML, prepared in %v", w.name, len(cat.Docs), float64(cat.xmlBytes())/(1<<20), time.Since(t0).Round(time.Millisecond))
	return cat, o, nil
}

// decodedBytes is the catalog's size as the store's cache charges it.
func decodedBytes(cat *catalog) (int64, error) {
	var n int64
	for _, d := range cat.Docs {
		a, err := container.Split(d.XML)
		if err != nil {
			return 0, err
		}
		sd, err := store.NewDoc(d.Name, a)
		if err != nil {
			return 0, err
		}
		n += sd.MemBytes()
	}
	return n, nil
}

func runUntraced(w *workload, seed uint64, dur time.Duration, root string) (*result, error) {
	cat, o, err := prepare(w, seed)
	if err != nil {
		return nil, err
	}
	var (
		s      *stack
		setups []float64
		acks   samples
	)
	for i := 0; i < setupRuns; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		if s, err = buildStack(w, cat, o, filepath.Join(root, fmt.Sprintf("setup%d", i)), nil); err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		acks = append(acks, s.ingestLat...)
	}
	defer s.close()
	logf("%s: set-up %v s; catalog loads %d acks (%d beyond p90)", w.name, setups, len(acks), acks.beyond(ingestTail))
	v := &verdict{}
	if err := v.compare(s, cat, filepath.Join(root, "single-before")); err != nil {
		return nil, err
	}
	ws := measure(s, cat, o, seed, dur, nil)
	logf("%s: %s", w.name, ws)
	if err := v.finish(s, cat, o, ws, filepath.Join(root, "single-after")); err != nil {
		return nil, err
	}
	stored, err := s.storedBytes()
	if err != nil {
		return nil, err
	}
	if w.writer {
		acks = ws.writer.lat
	}
	m := endToEnd(setups, acks, ws, float64(stored)/float64(liveXML(cat, ws)))
	return v.result(m), nil
}

func runTraced(w *workload, seed uint64, dur time.Duration, root string) (*result, error) {
	cat, o, err := prepare(w, seed)
	if err != nil {
		return nil, err
	}
	// Untraced half: the baseline of trace_overhead.
	s, err := buildStack(w, cat, o, filepath.Join(root, "plain"), nil)
	if err != nil {
		return nil, err
	}
	plain := measure(s, cat, o, seed, dur/2, nil)
	v := &verdict{}
	v.add(plain.counts())
	if err := s.close(); err != nil {
		return nil, err
	}
	// Reset the oracle's view of the writer's documents for the second stack.
	for _, d := range cat.Docs {
		o.settle(d.Name, 0)
	}

	k := newKit()
	s, err = buildStack(w, cat, o, filepath.Join(root, "traced"), k)
	if err != nil {
		return nil, err
	}
	defer s.close()
	ws := measure(s, cat, o, seed, dur/2, k)
	logf("%s: traced %s", w.name, ws)
	if err := v.finish(s, cat, o, ws, filepath.Join(root, "single")); err != nil {
		return nil, err
	}
	pr, err := runProbe(cat, filepath.Join(root, "probe"))
	if err != nil {
		return nil, err
	}
	m := perLayer(s, ws, plain, pr)
	return v.result(m), nil
}

// verdict accumulates attempted and failed operations over a run.
type verdict struct {
	attempted, failed int
	firstErr          error
}

func (v *verdict) add(attempted, failed int, err error) {
	v.attempted += attempted
	v.failed += failed
	if v.firstErr == nil {
		v.firstErr = err
	}
}

// compare checks a cluster against a single-node store over the same
// documents, built under dir.
func (v *verdict) compare(s *stack, cat *catalog, dir string) error {
	if len(s.nodes) < 2 {
		return nil
	}
	a, f, err := s.compareReference(cat, dir)
	if err != nil {
		return err
	}
	var differ error
	if f > 0 {
		differ = fmt.Errorf("%d of %d cluster responses differ from a single node", f, a)
	}
	v.add(a, f, differ)
	return nil
}

// finish folds a window's outcome in, then settles the write path: it
// flushes, pins every written document to its last version and checks
// every distinct read once more, exactly; a cluster is compared with
// its reference again.
func (v *verdict) finish(s *stack, cat *catalog, o *oracle, ws *windowStats, refDir string) error {
	v.add(ws.counts())
	if ws.writer == nil {
		return v.compare(s, cat, refDir)
	}
	if err := s.flush(); err != nil {
		return err
	}
	for name, ver := range ws.writer.final {
		o.settle(name, ver)
	}
	c := newClient()
	defer c.CloseIdleConnections()
	for _, r := range allReads(cat) {
		status, body, err := do(c, "GET", s.nodes[0].url+readPath(cat, r, false), nil)
		if err == nil {
			_, err = check(o, cat, r, status, body)
		}
		v.add(1, btoi(err != nil), err)
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (v *verdict) result(m map[string]metric) *result {
	if v.firstErr != nil {
		logf("FAILED: %d of %d operations; first: %v", v.failed, v.attempted, v.firstErr)
	}
	return &result{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: m}
}

// liveXML is the XML size of the catalog as it stands after the run:
// each document's last written version.
func liveXML(cat *catalog, ws *windowStats) int64 {
	var n int64
	for _, d := range cat.Docs {
		v := 0
		if ws.writer != nil {
			if last, ok := ws.writer.final[d.Name]; ok {
				v = last
			}
		}
		n += int64(len(cat.Versions[d.Name][v].XML))
	}
	return n
}
