package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// readerStats is one closed-loop client's record of a window.
type readerStats struct {
	lat       [numKinds]samples
	attempted int
	failed    int
	scanned   [numKinds]int // documents evaluated, summed over responses
	gone      int           // deleted documents reported as failed entries
	firstErr  error
	done      time.Time // when the last request completed

	// Traced runs only: per request, the client latency and the store's
	// own stage breakdown, joined with the kit's server spans later.
	traced []tracedReq
	stages map[string]int64 // stage -> summed ns
}

type tracedReq struct {
	id       string
	latency  time.Duration
	stagesNs int64 // sum of the response's trace stages; -1 without a trace
}

// traceBody is the ?trace=1 part of a /query response.
type traceBody struct {
	Trace *struct {
		Stages map[string]int64 `json:"stages_ns"`
	} `json:"trace"`
}

// newClient is one client connection to each node: set-up, the final
// checks and every load-generator client use one each.
func newClient() *http.Client {
	return &http.Client{Timeout: 120 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// runReader is one closed-loop client: it sends its seeded stream
// round-robin over the nodes until end, checking every answer.
func runReader(s *stack, cat *catalog, o *oracle, seed uint64, client int, end time.Time, traced bool) *readerStats {
	rs := &readerStats{stages: make(map[string]int64)}
	c := newClient()
	defer c.CloseIdleConnections()
	stream := newReadStream(cat, seed, client)
	for i := 0; time.Now().Before(end); i++ {
		r := stream.next()
		base := s.nodes[(i+client)%len(s.nodes)].url
		req, err := http.NewRequest(http.MethodGet, base+readPath(cat, r, traced), nil)
		if err != nil {
			rs.fail(err)
			continue
		}
		id := strconv.Itoa(client) + "-" + strconv.Itoa(i)
		if traced {
			req.Header.Set(idHeader, id)
		}
		t0 := time.Now()
		status, body, err := doReq(c, req)
		d := time.Since(t0)
		rs.attempted++
		if err != nil {
			rs.fail(err)
			continue
		}
		res, err := check(o, cat, r, status, body)
		if err != nil {
			rs.fail(err)
			continue
		}
		rs.lat[r.Kind] = append(rs.lat[r.Kind], d)
		rs.scanned[r.Kind] += res.scanned
		rs.gone += res.goneAsFailed
		if traced {
			tr := tracedReq{id: id, latency: d, stagesNs: -1}
			var tb traceBody
			if json.Unmarshal(body, &tb) == nil && tb.Trace != nil {
				tr.stagesNs = 0
				for st, ns := range tb.Trace.Stages {
					rs.stages[st] += ns
					tr.stagesNs += ns
				}
			}
			rs.traced = append(rs.traced, tr)
		}
	}
	rs.done = time.Now()
	return rs
}

func (rs *readerStats) fail(err error) {
	rs.failed++
	if rs.firstErr == nil {
		rs.firstErr = err
	}
}

func doReq(c *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// writerStats is the open-loop writer's record of a window.
type writerStats struct {
	lat       samples // ack time minus due time
	late      samples // send time minus due time
	attempted int
	failed    int
	xmlBytes  int64
	firstErr  error
	final     map[string]int // last version written per name
}

// runWriter sends ops on a fixed schedule — one every 1/rate seconds
// from start, each timed from when it was due — until end. A write is
// made visible to the oracle before it is sent.
func runWriter(s *stack, cat *catalog, o *oracle, ops []writeOp, rate float64, start, end time.Time) *writerStats {
	ws := &writerStats{final: make(map[string]int)}
	c := newClient()
	defer c.CloseIdleConnections()
	period := time.Duration(float64(time.Second) / rate)
	base := s.nodes[0].url
	for i, op := range ops {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(end) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		ws.late = append(ws.late, time.Since(due))
		if op.Delete {
			o.allowAbsent(op.Name)
			ws.attempted++
			if err := post(c, http.MethodDelete, base+"/docs/"+op.Name, nil); err != nil {
				ws.fail(err)
			}
		}
		d := cat.Versions[op.Name][op.Version]
		o.allowVersion(op.Name, op.Version)
		ws.attempted++
		if err := post(c, http.MethodPost, base+"/docs/"+op.Name, d.XML); err != nil {
			ws.fail(err)
			continue
		}
		ws.lat = append(ws.lat, time.Since(due))
		ws.xmlBytes += int64(len(d.XML))
		ws.final[op.Name] = op.Version
	}
	return ws
}

func (ws *writerStats) fail(err error) {
	ws.failed++
	if ws.firstErr == nil {
		ws.firstErr = err
	}
}

// heapSampler records the peak of live heap objects while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	go func() {
		defer close(h.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// halt stops the sampler and returns the peak in bytes.
func (h *heapSampler) halt() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// nodeSnap is one node's counters at a window boundary.
type nodeSnap struct {
	st         store.Stats
	ing        store.IngestStats
	wal        obs.HistSnapshot
	compaction obs.HistSnapshot
	degraded   uint64
}

func snapNode(n *node) nodeSnap {
	sn := nodeSnap{st: n.st.Stats()}
	reg := n.st.Metrics()
	if n.ing != nil {
		sn.ing = n.ing.Stats()
		// Registered by the write path; these calls return its series.
		sn.wal = reg.Histogram("xc_wal_append_seconds", "", obs.UnitSeconds).Snapshot()
		sn.compaction = reg.Histogram("xc_compaction_seconds", "", obs.UnitSeconds).Snapshot()
	}
	if n.cn != nil {
		sn.degraded = reg.Counter("xc_cluster_degraded_docs_total", "").Value()
	}
	return sn
}

// windowStats is everything one measured window recorded.
type windowStats struct {
	dur     time.Duration // from the start until the last read completed
	readers []*readerStats
	writer  *writerStats
	heap    uint64
	before  []nodeSnap
	after   []nodeSnap
	rec     *kitRecord // traced only
	fs      fsCounts   // traced only
}

// measure drives the stack for dur: w.readers closed-loop clients, plus
// the open-loop writer when the workload has one.
func measure(s *stack, cat *catalog, o *oracle, seed uint64, dur time.Duration, k *kit) *windowStats {
	ws := &windowStats{}
	runtime.GC()
	for _, n := range s.nodes {
		ws.before = append(ws.before, snapNode(n))
	}
	var fs0 fsCounts
	if k != nil {
		k.swap()
		fs0 = k.fs.counts()
	}
	hs := startHeapSampler()
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	ws.readers = make([]*readerStats, s.w.readers)
	for i := range ws.readers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ws.readers[i] = runReader(s, cat, o, seed, i, end, k != nil)
		}(i)
	}
	if s.w.writer {
		ops := writeSchedule(cat, seed, int(s.w.writeRate*dur.Seconds())+1, s.w.deleteEvery)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws.writer = runWriter(s, cat, o, ops, s.w.writeRate, start, end)
		}()
	}
	wg.Wait()
	ws.heap = hs.halt()
	for _, r := range ws.readers {
		if d := r.done.Sub(start); d > ws.dur {
			ws.dur = d
		}
	}
	if k != nil {
		ws.rec = k.swap()
		ws.fs = k.fs.counts().sub(fs0)
	}
	for _, n := range s.nodes {
		ws.after = append(ws.after, snapNode(n))
	}
	return ws
}

// reads merges the readers' latencies of one kind.
func (ws *windowStats) reads(kind int) samples {
	var all samples
	for _, r := range ws.readers {
		all = append(all, r.lat[kind]...)
	}
	return all
}

// qps is reads completed per second of the window.
func (ws *windowStats) qps() float64 {
	return float64(len(ws.reads(kindFanout))+len(ws.reads(kindDoc))) / ws.dur.Seconds()
}

func (ws *windowStats) counts() (attempted, failed int, firstErr error) {
	for _, r := range ws.readers {
		attempted += r.attempted
		failed += r.failed
		if firstErr == nil {
			firstErr = r.firstErr
		}
	}
	if w := ws.writer; w != nil {
		attempted += w.attempted
		failed += w.failed
		if firstErr == nil {
			firstErr = w.firstErr
		}
	}
	return attempted, failed, firstErr
}

func (ws *windowStats) String() string {
	f, d := ws.reads(kindFanout), ws.reads(kindDoc)
	s := fmt.Sprintf("fanouts %d (%d beyond p95), docs %d (%d beyond p95)", len(f), f.beyond(readTail), len(d), d.beyond(readTail))
	if ws.writer != nil {
		s += fmt.Sprintf(", writes %d (%d beyond p90)", len(ws.writer.lat), ws.writer.lat.beyond(ingestTail))
	}
	return s
}
