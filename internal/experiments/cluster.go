package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/store"
)

// ClusterRow is one cell of the clustered-serving sweep: the mixed
// catalog distributed over Nodes stores at replication factor RF, every
// corpus query scattered through one node's router. The Nodes=1 row is
// the single-store baseline the others are compared against — same
// documents, same queries, no cluster layer at all.
type ClusterRow struct {
	Nodes   int
	RF      int
	Workers int
	Docs    int // catalogued documents (union over nodes)

	Queries int           // scatter requests issued
	Wall    time.Duration // total wall across all requests
	QPS     float64
	AvgLat  time.Duration

	// Correctness carried along for the invariant check: every row must
	// answer the same total matches, and no request may degrade.
	TotalMatches uint64
	Pruned       int // per-document synopsis-pruned verdicts
	Direct       int // per-document synopsis-direct verdicts
	Degraded     int // per-document error entries (must stay 0)
	// Evaluated sums every node's per-document evaluations (the store's
	// Stats().Queries delta) over the timed rounds: one per scanned
	// verdict, whatever the replication factor.
	Evaluated uint64
}

// clusterSwap lets a server start before its handler exists (the node
// needs the server's URL to be built; the handler needs the node).
type clusterSwap struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *clusterSwap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "booting", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// ClusterSweep measures clustered scatter-gather serving: the mixed
// catalog (docsPer documents per corpus) is placed on its ring owners
// for every node count 1..maxNodes and every replication factor 1..2,
// and each corpus's Q2/Q3 queries are driven rounds times through one
// node's router over HTTP. The Nodes=1 row serves the same load from a
// single plain store.
func ClusterSweep(maxNodes, docsPer int, sizeScale float64, seed uint64, workers, rounds int) ([]ClusterRow, error) {
	if maxNodes < 1 {
		return nil, fmt.Errorf("cluster sweep: need at least 1 node, got %d", maxNodes)
	}
	if rounds < 1 {
		rounds = 1
	}
	staging, err := os.MkdirTemp("", "xccluster-sweep")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(staging)
	total, err := packMixedArchives(staging, mixedCorpora, docsPer, sizeScale, seed)
	if err != nil {
		return nil, fmt.Errorf("cluster sweep: %w", err)
	}
	archives, err := loadArchiveDir(staging)
	if err != nil {
		return nil, err
	}

	var queries []string
	for _, name := range mixedCorpora {
		c, err := corpus.ByName(name)
		if err != nil {
			return nil, err
		}
		queries = append(queries, c.Queries[1], c.Queries[2])
	}

	var rows []ClusterRow
	for nodes := 1; nodes <= maxNodes; nodes++ {
		for rf := 1; rf <= 2 && rf <= nodes; rf++ {
			row, err := clusterCell(archives, queries, nodes, rf, workers, rounds)
			if err != nil {
				return nil, fmt.Errorf("cluster sweep: %d nodes rf %d: %w", nodes, rf, err)
			}
			row.Docs = total
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// loadArchiveDir reads every archive in dir into memory keyed by
// document name, so each sweep cell can lay its own copies out.
func loadArchiveDir(dir string) (map[string][]byte, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*"+store.Ext))
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		name := filepath.Base(p)
		out[name[:len(name)-len(store.Ext)]] = raw
	}
	return out, nil
}

// clusterCell boots one (nodes, rf) configuration, drives the query
// load through it, and tears it down.
func clusterCell(archives map[string][]byte, queries []string, nodes, rf, workers, rounds int) (ClusterRow, error) {
	row := ClusterRow{Nodes: nodes, RF: rf, Workers: workers}

	writeTo := func(dir, name string, raw []byte) error {
		return os.WriteFile(filepath.Join(dir, name+store.Ext), raw, 0o644)
	}

	if nodes == 1 {
		// Baseline: one plain store, no cluster layer.
		dir, err := os.MkdirTemp("", "xccluster-single")
		if err != nil {
			return row, err
		}
		defer os.RemoveAll(dir)
		for name, raw := range archives {
			if err := writeTo(dir, name, raw); err != nil {
				return row, err
			}
		}
		st, err := store.Open(dir, store.Options{Workers: workers})
		if err != nil {
			return row, err
		}
		defer st.Close()
		srv := httptest.NewServer(store.NewHandler(st, store.ServerOptions{}))
		defer srv.Close()
		return driveClusterLoad(row, srv.URL, queries, rounds, []*store.Store{st})
	}

	swaps := make([]*clusterSwap, nodes)
	srvs := make([]*httptest.Server, nodes)
	urls := make([]string, nodes)
	for i := range swaps {
		swaps[i] = &clusterSwap{}
		srvs[i] = httptest.NewServer(swaps[i])
		defer srvs[i].Close()
		urls[i] = srvs[i].URL
	}
	ring := cluster.Build(urls, 0)
	byURL := make(map[string]int, nodes)
	for i, u := range urls {
		byURL[u] = i
	}
	dirs := make([]string, nodes)
	for i := range dirs {
		dir, err := os.MkdirTemp("", "xccluster-node")
		if err != nil {
			return row, err
		}
		defer os.RemoveAll(dir)
		dirs[i] = dir
	}
	for name, raw := range archives {
		for _, owner := range ring.Owners(name, rf) {
			if err := writeTo(dirs[byURL[owner]], name, raw); err != nil {
				return row, err
			}
		}
	}

	cnodes := make([]*cluster.Node, nodes)
	stores := make([]*store.Store, nodes)
	for i := range cnodes {
		st, err := store.Open(dirs[i], store.Options{Workers: workers})
		if err != nil {
			return row, err
		}
		defer st.Close()
		stores[i] = st
		n, err := cluster.New(st, cluster.Config{
			Self:              urls[i],
			Peers:             urls,
			ReplicationFactor: rf,
			ProbeInterval:     50 * time.Millisecond,
			ScatterTimeout:    60 * time.Second,
			QueryTimeout:      60 * time.Second,
		})
		if err != nil {
			return row, err
		}
		swaps[i].mu.Lock()
		swaps[i].h = n.Handler(store.NewHandler(st, store.ServerOptions{}), 100)
		swaps[i].mu.Unlock()
		n.Start()
		defer n.Stop()
		cnodes[i] = n
	}

	// Wait for the probers to converge before measuring.
	deadline := time.Now().Add(15 * time.Second)
	for {
		converged := true
		for _, n := range cnodes {
			if len(n.Membership().UpPeers()) != nodes-1 {
				converged = false
				break
			}
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			return row, fmt.Errorf("membership did not converge")
		}
		time.Sleep(10 * time.Millisecond)
	}

	return driveClusterLoad(row, urls[0], queries, rounds, stores)
}

// driveClusterLoad issues every query rounds times against base's
// /query endpoint and folds the responses, and the evaluations stores
// performed meanwhile, into the row.
func driveClusterLoad(row ClusterRow, base string, queries []string, rounds int, stores []*store.Store) (ClusterRow, error) {
	evaluations := func() uint64 {
		var n uint64
		for _, st := range stores {
			n += st.Stats().Queries
		}
		return n
	}
	client := &http.Client{Timeout: 120 * time.Second}
	// One warm round outside the clock: first contact decodes archives
	// into every node's cache, which is not what the sweep measures.
	for _, q := range queries {
		if _, err := fetchClusterFanout(client, base, q); err != nil {
			return row, err
		}
	}
	evals0 := evaluations()
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, q := range queries {
			fr, err := fetchClusterFanout(client, base, q)
			if err != nil {
				return row, err
			}
			row.Queries++
			row.TotalMatches += fr.TotalMatches
			row.Pruned += fr.Pruned
			row.Direct += fr.Direct
			row.Degraded += len(fr.Failed)
		}
	}
	row.Wall = time.Since(t0)
	row.Evaluated = evaluations() - evals0
	if row.Wall > 0 {
		row.QPS = float64(row.Queries) / row.Wall.Seconds()
	}
	if row.Queries > 0 {
		row.AvgLat = row.Wall / time.Duration(row.Queries)
	}
	return row, nil
}

// fetchClusterFanout GETs one catalog-wide query and decodes it.
func fetchClusterFanout(client *http.Client, base, q string) (*store.FanoutResponse, error) {
	resp, err := client.Get(base + "/query?q=" + url.QueryEscape(q))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return nil, fmt.Errorf("query %q: %s: %s", q, resp.Status, b)
	}
	var fr store.FanoutResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 256<<20)).Decode(&fr); err != nil {
		return nil, err
	}
	return &fr, nil
}

// CheckClusterInvariants enforces the sweep's correctness contract:
// no request degraded, every configuration answered the same total
// matches as the single-node baseline, the synopsis kept pruning
// remotely (clustered rows prune at least as many per-document verdicts
// as the baseline — peers prune with the same sidecars), and the
// cluster evaluated every scanned verdict exactly once — not once per
// replica.
func CheckClusterInvariants(rows []ClusterRow) error {
	if len(rows) == 0 {
		return fmt.Errorf("cluster invariant violated: no rows")
	}
	base := rows[0]
	if base.Nodes != 1 {
		return fmt.Errorf("cluster invariant violated: first row is %d nodes, want the single-node baseline", base.Nodes)
	}
	for _, r := range rows {
		if r.Degraded != 0 {
			return fmt.Errorf("cluster invariant violated: %d nodes rf %d degraded %d documents", r.Nodes, r.RF, r.Degraded)
		}
		if r.TotalMatches != base.TotalMatches {
			return fmt.Errorf("cluster invariant violated: %d nodes rf %d answered %d total matches, single node answered %d",
				r.Nodes, r.RF, r.TotalMatches, base.TotalMatches)
		}
		if r.Pruned < base.Pruned {
			return fmt.Errorf("cluster invariant violated: %d nodes rf %d pruned %d < single-node %d — peers are not pruning remotely",
				r.Nodes, r.RF, r.Pruned, base.Pruned)
		}
		// With no degradation every response lists every document.
		if scanned := r.Queries*r.Docs - r.Pruned - r.Direct; r.Evaluated != uint64(scanned) {
			return fmt.Errorf("cluster invariant violated: %d nodes rf %d evaluated %d documents for %d scanned verdicts, want one evaluation each",
				r.Nodes, r.RF, r.Evaluated, scanned)
		}
	}
	return nil
}

// PrintCluster renders cluster-sweep rows as an aligned table.
func PrintCluster(w io.Writer, rows []ClusterRow) {
	fmt.Fprintf(w, "%6s %4s %8s %6s %8s %9s %10s %8s %8s %9s %9s\n",
		"nodes", "rf", "queries", "docs", "wall", "qps", "avg lat", "pruned", "direct", "evaluated", "matches")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %4d %8d %6d %8s %9.1f %10s %8d %8d %9d %9d\n",
			r.Nodes, r.RF, r.Queries, r.Docs, r.Wall.Round(time.Millisecond),
			r.QPS, r.AvgLat.Round(time.Microsecond), r.Pruned, r.Direct, r.Evaluated, r.TotalMatches)
	}
}
