package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"sync"
	"time"
)

// DefaultProbeInterval is how often each peer's /healthz is probed.
const DefaultProbeInterval = 2 * time.Second

// DefaultProbeTimeout bounds one health probe round-trip.
const DefaultProbeTimeout = 2 * time.Second

// PeerState is one peer's health as the prober last saw it.
type PeerState struct {
	ID         string    `json:"id"` // advertise URL
	Up         bool      `json:"up"`
	Generation uint64    `json:"generation"` // bumps on every up/down transition
	LastProbe  time.Time `json:"last_probe,omitempty"`
	LastError  string    `json:"last_error,omitempty"`
	Docs       int       `json:"docs"` // catalog size at the last successful probe
}

// peer is the mutable record behind a PeerState, guarded by
// Membership.mu.
type peer struct {
	state PeerState
	names []string // last-known catalog: scatter assignment and failure attribution
}

// Membership tracks the health of every other node: a background
// prober drives /healthz with generation-numbered up/down transitions,
// and on each successful probe refreshes the peer's catalog name list
// (GET /cluster/docs) — the catalog the router assigns documents from,
// and the one it attributes to the peer once it is down, so that peer's
// documents become per-document error entries instead of vanishing.
// Peers start down and join the routable set on their first successful
// probe.
type Membership struct {
	self     string
	client   *http.Client
	interval time.Duration
	m        *clusterMetrics

	mu    sync.Mutex
	peers map[string]*peer

	// onUp, when non-nil, runs (outside mu) after a peer transitions
	// up — the replicator hooks it to retry transfers the peer missed.
	onUp func(peer string)

	// onRing, when non-nil, receives each healthy peer's current ring
	// description — the Node hooks it to adopt superseding rings, which
	// is how an operator-published membership change spreads without any
	// central coordinator.
	onRing func(Desc)

	stop chan struct{}
	done sync.WaitGroup
}

// newMembership builds the tracker for the given peers (self excluded
// by the caller).
func newMembership(self string, peers []string, client *http.Client, interval time.Duration, m *clusterMetrics) *Membership {
	if interval <= 0 {
		interval = DefaultProbeInterval
	}
	mem := &Membership{
		self:     self,
		client:   client,
		interval: interval,
		m:        m,
		peers:    make(map[string]*peer),
		stop:     make(chan struct{}),
	}
	for _, p := range peers {
		if p != self {
			mem.peers[p] = &peer{state: PeerState{ID: p}}
		}
	}
	return mem
}

// Start launches the background prober. Stop ends it.
func (mem *Membership) Start() {
	mem.done.Add(1)
	go func() {
		defer mem.done.Done()
		mem.probeAll() // immediately, so the router has live peers at startup
		t := time.NewTicker(mem.interval)
		defer t.Stop()
		for {
			select {
			case <-mem.stop:
				return
			case <-t.C:
				mem.probeAll()
			}
		}
	}()
}

// Stop ends the prober and waits for the in-flight round to finish.
func (mem *Membership) Stop() {
	close(mem.stop)
	mem.done.Wait()
}

// probeAll probes every peer concurrently — one slow peer must not
// delay the health verdicts of the rest.
func (mem *Membership) probeAll() {
	mem.mu.Lock()
	ids := make([]string, 0, len(mem.peers))
	for id := range mem.peers {
		ids = append(ids, id)
	}
	mem.mu.Unlock()
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			mem.probe(id)
		}(id)
	}
	wg.Wait()
}

// probe runs one health check against id and records the transition.
func (mem *Membership) probe(id string) {
	ctx, cancel := context.WithTimeout(context.Background(), DefaultProbeTimeout)
	defer cancel()
	err := mem.healthz(ctx, id)
	var names []string
	if err == nil {
		// Refresh the catalog list only on healthy probes; a fetch
		// failure degrades attribution, not health (the stale list is
		// still the best available).
		names, _ = mem.fetchNames(ctx, id)
		mem.mu.Lock()
		onRing := mem.onRing
		mem.mu.Unlock()
		if onRing != nil {
			if d, rerr := mem.fetchRing(ctx, id); rerr == nil {
				onRing(d)
			}
		}
	}
	mem.record(id, err, names)
}

// fetchRing pulls the peer's current ring description — the pull half
// of the ring exchange (the push half is POST /cluster/ring).
func (mem *Membership) fetchRing(ctx context.Context, id string) (Desc, error) {
	var d Desc
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, id+"/cluster/ring", nil)
	if err != nil {
		return d, err
	}
	resp, err := mem.client.Do(req)
	if err != nil {
		return d, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("cluster/ring: %s", resp.Status)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&d); err != nil {
		return d, err
	}
	return d, nil
}

func (mem *Membership) healthz(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, id+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := mem.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// fetchNames pulls the peer's catalog names (GET /cluster/docs).
func (mem *Membership) fetchNames(ctx context.Context, id string) ([]string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, id+"/cluster/docs", nil)
	if err != nil {
		return nil, err
	}
	resp, err := mem.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster/docs: %s", resp.Status)
	}
	var body struct {
		Names []string `json:"names"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&body); err != nil {
		return nil, err
	}
	return body.Names, nil
}

// record applies one probe outcome, bumping the generation on a
// transition and notifying the up-hook when a peer comes back.
func (mem *Membership) record(id string, err error, names []string) {
	var cameUp bool
	mem.mu.Lock()
	p := mem.peers[id]
	if p == nil {
		mem.mu.Unlock()
		return
	}
	up := err == nil
	if up != p.state.Up || p.state.Generation == 0 {
		p.state.Generation++
		mem.m.transitions.Inc()
		cameUp = up
		if !up {
			log.Printf("cluster: peer %s down (gen %d): %v", id, p.state.Generation, err)
		} else if p.state.Generation > 1 {
			log.Printf("cluster: peer %s up (gen %d)", id, p.state.Generation)
		}
	}
	p.state.Up = up
	p.state.LastProbe = time.Now()
	p.state.LastError = ""
	if err != nil {
		p.state.LastError = err.Error()
	}
	if names != nil {
		p.names = names
		p.state.Docs = len(names)
	}
	onUp := mem.onUp
	mem.mu.Unlock()
	if cameUp && onUp != nil {
		onUp(id)
	}
}

// SetPeers reconciles the tracked peer set with ids (self excluded):
// nodes not yet tracked enter down and join the routable set on their
// first successful probe; tracked nodes absent from ids are dropped.
// The Node calls it on every ring adoption, so a membership change
// published through the ring exchange actually brings new nodes into
// probing, routing and replication — without it, record() would ignore
// them forever.
func (mem *Membership) SetPeers(ids []string) {
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		if id != mem.self {
			want[id] = true
		}
	}
	mem.mu.Lock()
	defer mem.mu.Unlock()
	for id := range want {
		if mem.peers[id] == nil {
			mem.peers[id] = &peer{state: PeerState{ID: id}}
		}
	}
	for id := range mem.peers {
		if !want[id] {
			delete(mem.peers, id)
		}
	}
}

// MarkDown records a peer failure observed outside the prober — the
// router calls it when a scatter request fails outright, so routing
// stops preferring the peer before the next probe confirms.
func (mem *Membership) MarkDown(id string, err error) {
	mem.record(id, fmt.Errorf("marked down: %w", err), nil)
}

// Up reports whether id is currently routable.
func (mem *Membership) Up(id string) bool {
	mem.mu.Lock()
	defer mem.mu.Unlock()
	p := mem.peers[id]
	return p != nil && p.state.Up
}

// UpPeers returns the currently routable peer IDs, sorted.
func (mem *Membership) UpPeers() []string {
	mem.mu.Lock()
	defer mem.mu.Unlock()
	var up []string
	for id, p := range mem.peers {
		if p.state.Up {
			up = append(up, id)
		}
	}
	sort.Strings(up)
	return up
}

// Names returns the last-known catalog of id (nil when never fetched).
// Callers must not mutate.
func (mem *Membership) Names(id string) []string {
	mem.mu.Lock()
	defer mem.mu.Unlock()
	if p := mem.peers[id]; p != nil {
		return p.names
	}
	return nil
}

// States snapshots every peer's health, sorted by ID — the
// /cluster/peers response and the peers-up gauge's source.
func (mem *Membership) States() []PeerState {
	mem.mu.Lock()
	defer mem.mu.Unlock()
	out := make([]PeerState, 0, len(mem.peers))
	for _, p := range mem.peers {
		out = append(out, p.state)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
