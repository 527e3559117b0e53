package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// IngestStats is a point-in-time snapshot of the write path, reported
// under "ingest" in /stats.
type IngestStats struct {
	Ingested uint64 `json:"ingested"` // documents accepted since open
	Deleted  uint64 `json:"deleted"`  // tombstones accepted since open
	Replayed int    `json:"replayed"` // WAL records replayed at open

	LiveDocs   int   `json:"live_docs"`  // memtable entries awaiting compaction
	LiveBytes  int64 `json:"live_bytes"` // their estimated in-memory size
	SealedGens int   `json:"sealed_generations"`

	Compactions   uint64 `json:"compactions"`
	CompactedDocs uint64 `json:"compacted_docs"`

	// CompactionRetries counts write steps (archive, sidecar, packing)
	// re-attempted after a transient failure; CompactionFailures counts
	// steps that failed even after exhausting their retry budget.
	CompactionRetries  uint64 `json:"compaction_retries,omitempty"`
	CompactionFailures uint64 `json:"compaction_failures,omitempty"`

	// PackedDocs counts documents the compactor's packing stage migrated
	// from loose archives into cold-tier bundles (0 when packing is off).
	PackedDocs uint64 `json:"packed_docs,omitempty"`

	// SynopsisBuilds counts per-document path synopses built by the
	// write path (at ingest and WAL replay); compaction persists them as
	// archive sidecars.
	SynopsisBuilds uint64 `json:"synopsis_builds"`

	WALSegments int   `json:"wal_segments"`
	WALBytes    int64 `json:"wal_bytes"`
	WALSync     bool  `json:"wal_sync"`

	// WALOpenWarnings lists non-fatal conditions the WAL open tolerated
	// and worked around — e.g. an empty segment that could not be
	// unlinked and was kept (harmlessly) instead. Persistent entries
	// here mean the WAL directory needs operator attention.
	WALOpenWarnings []string `json:"wal_open_warnings,omitempty"`

	LastError string `json:"last_error,omitempty"` // pending background-compaction failure
}

// Ingestor is the write API the HTTP layer drives — implemented by
// internal/ingest.Ingester. All methods must be safe for concurrent use.
type Ingestor interface {
	// Add ingests one XML document under name, replacing any existing
	// document with that name.
	Add(name string, xml []byte) error
	// Delete tombstones name.
	Delete(name string) error
	// Flush makes every ingested document durable as an archive.
	Flush() error
	// Stats snapshots the write path.
	Stats() IngestStats
}

// ServerOptions configures the HTTP face of a Store.
type ServerOptions struct {
	// MaxPaths caps how many result addresses a single response may carry
	// (the `max` query parameter is clamped to it). <= 0 selects 100.
	MaxPaths int
	// Ingest enables the write endpoints. nil serves read-only.
	Ingest Ingestor
	// MaxBodyBytes caps an ingested document's size. <= 0 selects 64 MiB.
	MaxBodyBytes int64
	// AccessLog, when non-nil, wraps the handler in structured
	// per-request logging (method, path, status, duration, bytes).
	AccessLog *slog.Logger

	// QueryTimeout bounds each /query evaluation. Past it the request
	// fails with 504 and the store stops dispatching documents (loads
	// and evaluations already running finish). <= 0 disables the bound.
	QueryTimeout time.Duration

	// MaxConcurrentQueries caps in-flight /query requests: requests over
	// the cap are shed immediately with 429 rather than queued, keeping
	// latency bounded under overload. <= 0 disables admission control.
	MaxConcurrentQueries int
}

// NewHandler wraps a Store in the xcserve HTTP API:
//
//	GET /query?doc=NAME&q=XPATH[&max=N]  evaluate against one document
//	GET /query?q=XPATH[&max=N]           fan out over every document
//	GET /docs                            the catalog
//	GET /stats                           cache, query and ingest counters
//	GET /metrics                         Prometheus text exposition
//	GET /debug/slow                      slow-query ring (when enabled)
//
// Adding trace=1 to /query attaches a per-stage timing breakdown to
// the response.
//
// When ServerOptions.Ingest is set, the write API:
//
//	POST   /docs/NAME   body = XML      ingest (or replace) a document
//	DELETE /docs/NAME                   tombstone a document
//	POST   /flush                       force compaction to archives
//
// All responses are JSON (except /metrics, which is Prometheus text);
// errors are {"error": "..."} with a matching status code. The handler
// is safe for concurrent use — it adds no state of its own beyond the
// start time, the Store is coordination-free on the read path, and the
// Ingestor serialises the write path internally.
func NewHandler(s *Store, opts ServerOptions) http.Handler {
	if opts.MaxPaths <= 0 {
		opts.MaxPaths = 100
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 64 << 20
	}
	h := &handler{store: s, opts: opts, start: time.Now()}
	if opts.MaxConcurrentQueries > 0 {
		h.sem = make(chan struct{}, opts.MaxConcurrentQueries)
	}
	h.shed = s.Metrics().Counter("xc_queries_shed_total",
		"Query requests rejected with 429 by the admission gate.")
	h.timeouts = s.Metrics().Counter("xc_query_timeouts_total",
		"Query requests that hit the configured -query-timeout (504).")
	mux := http.NewServeMux()
	mux.HandleFunc("/query", h.query)
	mux.HandleFunc("/docs", h.docs)
	mux.HandleFunc("/docs/", h.doc)
	mux.HandleFunc("/flush", h.flush)
	mux.HandleFunc("/stats", h.stats)
	mux.Handle("/metrics", s.Metrics().Handler())
	mux.HandleFunc("/debug/slow", h.slow)
	mux.HandleFunc("/healthz", h.healthz)
	mux.HandleFunc("/readyz", h.readyz)
	if opts.AccessLog != nil {
		return obs.AccessLog(opts.AccessLog, mux)
	}
	return mux
}

type handler struct {
	store *Store
	opts  ServerOptions
	start time.Time

	// sem is the admission gate: one slot per in-flight /query. nil when
	// MaxConcurrentQueries is unset.
	sem      chan struct{}
	shed     *obs.Counter
	timeouts *obs.Counter
}

// QueryResponse is the /query response for a single document.
type QueryResponse struct {
	Doc     string   `json:"doc"`
	Query   string   `json:"query"`
	Matches uint64   `json:"matches"` // tree nodes selected
	Paths   []string `json:"paths"`   // up to `max` tree addresses, document order

	// Pruned marks a document the path-synopsis index skipped during a
	// fan-out: provably zero matches, so the instance-size and timing
	// fields below stay zero (the document was never touched).
	Pruned bool `json:"pruned,omitempty"`

	// Direct marks a document the planner answered from synopsis
	// statistics alone during a fan-out: matches is exact but no
	// evaluation ran, so selected_dag and the instance-size fields stay
	// zero (requesting paths of a count-shaped result evaluates lazily).
	Direct bool `json:"direct,omitempty"`

	// Engine statistics for the evaluation (the Figure 7 columns).
	SelectedDAG int   `json:"selected_dag"`
	VertsBefore int   `json:"verts_before"`
	EdgesBefore int   `json:"edges_before"`
	VertsAfter  int   `json:"verts_after"`
	EdgesAfter  int   `json:"edges_after"`
	PrepNanos   int64 `json:"prep_ns"` // string distillation + merge; 0 for tag-only
	EvalNanos   int64 `json:"eval_ns"`

	// Trace is the per-stage timing breakdown, present when the request
	// asked for it with trace=1.
	Trace *TraceInfo `json:"trace,omitempty"`
}

// TraceInfo is the JSON rendering of a query's stage trace (trace=1).
type TraceInfo struct {
	TotalNanos int64            `json:"total_ns"`
	Stages     map[string]int64 `json:"stages_ns"` // only stages that ran

	Considered   int   `json:"docs_considered"`
	Pruned       int   `json:"docs_pruned,omitempty"`
	Direct       int   `json:"docs_direct,omitempty"`
	Scanned      int   `json:"docs_scanned"`
	Failed       int   `json:"docs_failed,omitempty"`
	BytesDecoded int64 `json:"bytes_decoded"` // archive bytes decoded on cache misses
}

// traceInfo renders a finalized trace. Callers must have passed tr
// through CloseTrace first (Total is stamped there).
func traceInfo(tr *obs.Trace) *TraceInfo {
	if tr == nil {
		return nil
	}
	stages := make(map[string]int64, obs.NumStages)
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		if d := tr.Spans[st]; d > 0 {
			stages[st.String()] = int64(d)
		}
	}
	return &TraceInfo{
		TotalNanos:   int64(tr.Total),
		Stages:       stages,
		Considered:   tr.Considered,
		Pruned:       tr.Pruned,
		Direct:       tr.Direct,
		Scanned:      tr.Scanned,
		Failed:       tr.Failed,
		BytesDecoded: tr.BytesDecoded(),
	}
}

// FanoutResponse is the /query response when no document is named: one
// query evaluated against the whole catalog.
type FanoutResponse struct {
	Query        string          `json:"query"`
	Docs         []QueryResponse `json:"docs"`
	Failed       []FanoutError   `json:"failed,omitempty"`
	TotalMatches uint64          `json:"total_matches"`
	Pruned       int             `json:"pruned"` // documents the synopsis index skipped
	Direct       int             `json:"direct"` // documents answered from synopsis statistics
	WallNanos    int64           `json:"wall_ns"`
	Workers      int             `json:"workers"`

	// Trace is the per-stage timing breakdown, present when the request
	// asked for it with trace=1.
	Trace *TraceInfo `json:"trace,omitempty"`
}

// FanoutError reports one document that failed during a fan-out.
type FanoutError struct {
	Doc   string `json:"doc"`
	Error string `json:"error"`

	// RetryAfter carries a shedding peer's Retry-After hint (seconds),
	// preserved per document when a clustered fan-out degrades a 429
	// into error entries instead of failing the whole request.
	RetryAfter string `json:"retry_after,omitempty"`
}

func (h *handler) query(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	if h.sem != nil {
		select {
		case h.sem <- struct{}{}:
			defer func() { <-h.sem }()
		default:
			h.shed.Inc()
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests,
				fmt.Errorf("server at max concurrent queries (%d)", h.opts.MaxConcurrentQueries))
			return
		}
	}
	ctx := r.Context()
	if h.opts.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, h.opts.QueryTimeout)
		defer cancel()
	}
	q := r.URL.Query().Get("q")
	if q == "" {
		httpError(w, http.StatusBadRequest, errors.New("missing q parameter"))
		return
	}
	max := h.opts.MaxPaths
	if m := r.URL.Query().Get("max"); m != "" {
		n, err := strconv.Atoi(m)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad max parameter %q", m))
			return
		}
		if n < max {
			max = n
		}
	}

	wantTrace := r.URL.Query().Get("trace") == "1"

	if name := r.URL.Query().Get("doc"); name != "" {
		res, tr, err := h.store.QueryTraceCtx(ctx, name, q, wantTrace)
		if err != nil {
			h.store.CloseTrace(tr, err)
			if st, ok := h.ctxStatus(err); ok {
				httpError(w, st, err)
				return
			}
			httpError(w, statusFor(h.store, name), err)
			return
		}
		t0 := tr.Now()
		qr := toResponse(name, q, res, max)
		tr.Record(obs.StageMaterialize, t0)
		h.store.CloseTrace(tr, nil)
		if wantTrace {
			qr.Trace = traceInfo(tr)
		}
		writeJSON(w, qr)
		return
	}

	t0 := time.Now()
	budget := pathBudget{max: max}
	results, tr, err := h.store.fanout(ctx, q, wantTrace, nil, budget)
	if err != nil {
		h.store.CloseTrace(tr, err)
		if st, ok := h.ctxStatus(err); ok {
			httpError(w, st, err)
			return
		}
		httpError(w, http.StatusBadRequest, err)
		return
	}
	wall := time.Since(t0)
	m0 := tr.Now()
	resp := renderFanout(q, results, budget, h.store.Workers())
	resp.WallNanos = int64(wall)
	tr.Record(obs.StageMaterialize, m0)
	h.store.CloseTrace(tr, nil)
	if wantTrace {
		resp.Trace = traceInfo(tr)
	}
	writeJSON(w, resp)
}

// pathBudget is the rule capping the result addresses a rendered
// fan-out carries: max addresses for the whole response, spent by the
// documents in catalog order (the /query handler), or max for each
// document (FanoutLocal: the cluster router applies the shared budget
// only after merging the nodes' answers).
type pathBudget struct {
	max    int
	perDoc bool
}

// allow returns the addresses the next document may render while left
// of the shared budget is unspent.
func (b pathBudget) allow(left int) int {
	if b.perDoc {
		return b.max
	}
	return left
}

// shares returns how many addresses each result will render under the
// budget, before anything is rendered: every result's SelectedTree is
// exact, and a document renders min(its allowance, SelectedTree) of
// them. Failed documents render none.
func (b pathBudget) shares(results []core.BatchResult) []int {
	out := make([]int, len(results))
	left := b.max
	for i, br := range results {
		if br.Err != nil {
			continue
		}
		n := b.allow(left)
		if tree := br.Result.SelectedTree; tree < uint64(n) {
			n = int(tree)
		}
		out[i] = n
		left -= n
	}
	return out
}

// renderFanout renders fan-out results as the /query response, with the
// addresses capped by the budget: the one renderer of the handler's
// fan-out and FanoutLocal. The shared budget is spent by the addresses
// actually rendered, so a document whose fallback evaluation failed
// (and renders none) leaves its share to the documents after it.
func renderFanout(query string, results []core.BatchResult, b pathBudget, workers int) *FanoutResponse {
	resp := &FanoutResponse{Query: query, Docs: []QueryResponse{}, Workers: workers}
	left := b.max
	for _, br := range results {
		if br.Err != nil {
			resp.Failed = append(resp.Failed, FanoutError{Doc: br.Name, Error: br.Err.Error()})
			continue
		}
		qr := toResponse(br.Name, query, br.Result, b.allow(left))
		qr.Pruned = br.Pruned
		if br.Pruned {
			resp.Pruned++
		}
		qr.Direct = br.Direct
		if br.Direct {
			resp.Direct++
		}
		left -= len(qr.Paths)
		resp.Docs = append(resp.Docs, qr)
		resp.TotalMatches += br.Result.SelectedTree
	}
	return resp
}

func toResponse(name, q string, res *core.Result, max int) QueryResponse {
	paths := res.Paths(max)
	if paths == nil {
		paths = []string{}
	}
	return QueryResponse{
		Doc:         name,
		Query:       q,
		Matches:     res.SelectedTree,
		Paths:       paths,
		SelectedDAG: res.SelectedDAG,
		VertsBefore: res.VertsBefore,
		EdgesBefore: res.EdgesBefore,
		VertsAfter:  res.VertsAfter,
		EdgesAfter:  res.EdgesAfter,
		PrepNanos:   int64(res.ParseTime),
		EvalNanos:   int64(res.EvalTime),
	}
}

// DocsResponse is the /docs response.
type DocsResponse struct {
	Count int       `json:"count"`
	Docs  []DocInfo `json:"docs"`
}

func (h *handler) docs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	// One catalog snapshot for both fields, so Count always equals
	// len(Docs) even while ingest or compaction mutates the catalog.
	docs := h.store.Docs()
	writeJSON(w, DocsResponse{Count: len(docs), Docs: docs})
}

// IngestResponse acknowledges a write.
type IngestResponse struct {
	Doc    string `json:"doc,omitempty"`
	Status string `json:"status"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// doc handles /docs/{name}: POST/PUT ingests the request body as a
// document, DELETE tombstones it.
func (h *handler) doc(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/docs/")
	if name == "" || strings.Contains(name, "/") {
		httpError(w, http.StatusNotFound, fmt.Errorf("bad document path %q", r.URL.Path))
		return
	}
	// Full name validation up front, not just the separator check above:
	// the ingest layer re-validates, but rejecting here keeps hostile
	// names ('..', backslashes, oversized) out of every downstream log
	// and error path, and gives GETs of such names a clean 400 too.
	if err := ValidateDocName(name); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	switch r.Method {
	case http.MethodPost, http.MethodPut:
		ing := h.ingestOr403(w)
		if ing == nil {
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, h.opts.MaxBodyBytes))
		if err != nil {
			status := http.StatusBadRequest
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				status = http.StatusRequestEntityTooLarge
			}
			httpError(w, status, fmt.Errorf("reading body: %v", err))
			return
		}
		if err := ing.Add(name, body); err != nil {
			httpError(w, ingestStatus(err), err)
			return
		}
		writeJSONStatus(w, http.StatusCreated, IngestResponse{Doc: name, Status: "ingested", Bytes: int64(len(body))})
	case http.MethodDelete:
		ing := h.ingestOr403(w)
		if ing == nil {
			return
		}
		if err := ing.Delete(name); err != nil {
			httpError(w, ingestStatus(err), err)
			return
		}
		writeJSON(w, IngestResponse{Doc: name, Status: "deleted"})
	default:
		httpError(w, http.StatusMethodNotAllowed, errors.New("POST, PUT or DELETE only"))
	}
}

// flush handles POST /flush: synchronous compaction to archives.
func (h *handler) flush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	ing := h.ingestOr403(w)
	if ing == nil {
		return
	}
	if err := ing.Flush(); err != nil {
		httpError(w, ingestStatus(err), err)
		return
	}
	writeJSON(w, IngestResponse{Status: "flushed"})
}

// ingestOr403 returns the write API, or answers 403 and returns nil on a
// read-only store.
func (h *handler) ingestOr403(w http.ResponseWriter) Ingestor {
	if h.opts.Ingest == nil {
		httpError(w, http.StatusForbidden, errors.New("store is read-only (start xcserve with -ingest)"))
		return nil
	}
	return h.opts.Ingest
}

// ingestStatus maps a write-path error to an HTTP status: client faults
// (invalid name or XML) are 400s, unknown names 404, shutdown races 503,
// anything else — WAL or compaction I/O — a 500 the client should treat
// as retryable.
func ingestStatus(err error) int {
	switch {
	case errors.Is(err, ErrBadDocument):
		return http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrUnavailable):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// StatsResponse is the /stats response: store statistics plus server
// uptime and build identity, and the write path's counters when ingest
// is enabled.
type StatsResponse struct {
	Stats
	UptimeNanos   int64         `json:"uptime_ns"`
	UptimeSeconds float64       `json:"uptime_seconds"`
	Workers       int           `json:"workers"`
	Build         obs.BuildInfo `json:"build"`
	Ingest        *IngestStats  `json:"ingest,omitempty"`
}

func (h *handler) stats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	uptime := time.Since(h.start)
	resp := StatsResponse{
		Stats:         h.store.Stats(),
		UptimeNanos:   int64(uptime),
		UptimeSeconds: uptime.Seconds(),
		Workers:       h.store.Workers(),
		Build:         obs.Build(),
	}
	if h.opts.Ingest != nil {
		ist := h.opts.Ingest.Stats()
		resp.Ingest = &ist
	}
	writeJSON(w, resp)
}

// SlowResponse is the /debug/slow response: the retained slow-query
// entries, newest first.
type SlowResponse struct {
	ThresholdNanos int64           `json:"threshold_ns"`
	Total          uint64          `json:"total"` // includes ring-evicted entries
	Entries        []obs.SlowEntry `json:"entries"`
}

func (h *handler) slow(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	l := h.store.SlowLog()
	if l == nil {
		httpError(w, http.StatusNotFound, errors.New("slow-query log disabled (start xcserve with -slow-query)"))
		return
	}
	entries := l.Entries()
	if entries == nil {
		entries = []obs.SlowEntry{}
	}
	writeJSON(w, SlowResponse{
		ThresholdNanos: int64(l.Threshold()),
		Total:          l.Total(),
		Entries:        entries,
	})
}

// ReadyReporter is the optional readiness face of an Ingestor: Ready
// returns nil when the write path is drained (no compaction backlog, no
// pending background failure). The /readyz endpoint type-asserts it, so
// implementations opt in without widening the Ingestor contract.
type ReadyReporter interface {
	Ready() error
}

// HealthResponse is the /healthz and /readyz body.
type HealthResponse struct {
	Status string   `json:"status"`           // "ok" or "unavailable"
	Causes []string `json:"causes,omitempty"` // why not ready
}

// healthz handles GET /healthz: liveness only — the process is up and
// the catalog is reachable. Cluster peers probe it to drive membership.
func (h *handler) healthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	writeJSON(w, HealthResponse{Status: "ok"})
}

// readyz handles GET /readyz: readiness for traffic — the store is
// open, the scrubber is not mid-quarantine (the catalog is not mutating
// under a corruption verdict), and the write path is drained. Not ready
// is 503 with the causes listed, so orchestrators and peers can act on
// the distinction between dead and temporarily unsuitable.
func (h *handler) readyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	var causes []string
	if h.store.Quarantining() {
		causes = append(causes, "scrubber is quarantining corrupt artifacts")
	}
	if rr, ok := h.opts.Ingest.(ReadyReporter); ok && h.opts.Ingest != nil {
		if err := rr.Ready(); err != nil {
			causes = append(causes, err.Error())
		}
	}
	if len(causes) > 0 {
		writeJSONStatus(w, http.StatusServiceUnavailable,
			HealthResponse{Status: "unavailable", Causes: causes})
		return
	}
	writeJSON(w, HealthResponse{Status: "ok"})
}

// ctxStatus maps a context error to its HTTP status: a deadline hit is
// the server's -query-timeout answering 504; a bare cancellation means
// the client went away (503 is written into the void). ok is false for
// every other error.
func (h *handler) ctxStatus(err error) (status int, ok bool) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		h.timeouts.Inc()
		return http.StatusGatewayTimeout, true
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, true
	}
	return 0, false
}

// statusFor distinguishes "no such document" (404) from query and
// evaluation failures (400).
func statusFor(s *Store, name string) int {
	if s.Has(name) {
		return http.StatusBadRequest
	}
	return http.StatusNotFound
}

func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
