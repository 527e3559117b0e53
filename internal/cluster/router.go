package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/store"
	"repro/internal/xpath"
)

// PeerQuery is the body of POST /cluster/query: the query text plus its
// compiled signature, shipped ahead so the peer can prune against its
// local path-synopsis index before compiling — when the signature alone
// proves every document it must answer empty, the peer answers without
// even parsing the query. Max is the *global* paths budget; peers render
// each document independently up to it and the router re-applies the
// shared budget after the merge.
//
// Skip lists the documents the router knows this peer holds but
// assigned to another target for this query; the peer evaluates its
// catalog minus Skip. It is an exclusion list, not an assignment list,
// so a document that landed on the peer after the router's last
// membership probe is still answered (read-your-writes through any
// node), at the cost of one duplicate evaluation the merge discards.
type PeerQuery struct {
	Query string         `json:"query"`
	Sig   *xpath.SigWire `json:"sig,omitempty"`
	Max   int            `json:"max"`
	Skip  []string       `json:"skip,omitempty"`
}

// Router fans a catalog-wide query out to the cluster and merges the
// partial fan-outs into one response indistinguishable from a single
// node holding the union catalog. Each document is evaluated on exactly
// one live holder per query, and failures degrade per document: a
// document whose holder sheds (429), times out (504 or transport
// deadline) or is unreachable is re-asked of its next live holder, and
// only a document no holder could answer becomes an error entry — the
// request as a whole still succeeds, exactly like the single-node
// degraded-serving contract.
type Router struct {
	self    string
	st      *store.Store
	mem     *Membership
	client  *http.Client
	ringFn  func() *Ring
	rf      int
	timeout time.Duration
	m       *clusterMetrics
}

// peerAnswer is one target's contribution to a scatter.
type peerAnswer struct {
	peer       string
	resp       *store.FanoutResponse
	err        error  // transport or decode failure
	status     int    // HTTP status when the peer answered non-200
	retryAfter string // Retry-After from a 429
	timedOut   bool
}

// ask is one scatter request: the documents target must answer, and
// the known documents it holds that it must skip.
type ask struct {
	target string
	docs   []string
	skip   []string
}

// QueryAll runs one clustered fan-out. It compiles locally (a bad query
// fails fast without touching the network), then:
//
//   - assigns every document in the union of known catalogs — this
//     node's own plus each peer's last-probed list, down peers included
//     — to the first ring owner among its live holders, else to its
//     first live holder (the order pick uses, so answers never change);
//   - asks every live target at once, each with a Skip list of the
//     documents it holds but was not assigned, while this node
//     evaluates its own share;
//   - re-asks (hedges) a document of its next live holder, within the
//     same deadline, when its target failed (transport error, 429, 504),
//     reported it as a per-document failure, or did not return it; once
//     the deadline has passed no further round is sent, so a slow peer
//     never gets healthy hedge targets marked down in its place;
//   - merges with dedup for documents the assignment did not know of,
//     and re-applies the global paths budget in catalog order.
//
// A document becomes a failed entry only when no holder is left: one
// whose holders are all down ("no live holder", naming them), one a
// holder asked failed (the last such failure, keeping a 429's
// Retry-After), or one the deadline left no time to re-ask. A document
// every holder asked no longer has is omitted — it was deleted.
func (rt *Router) QueryAll(ctx context.Context, query string, max int) (*store.FanoutResponse, error) {
	prog, err := xpath.CompileQuery(query)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rt.m.scatters.Inc()
	if rt.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rt.timeout)
		defer cancel()
	}

	sc, asks := rt.assign()
	for round := 0; len(asks) > 0; round++ {
		if round > 0 {
			if ctx.Err() != nil {
				sc.abandon(asks)
				break
			}
			for _, a := range asks {
				rt.m.hedgedDocs.Add(uint64(len(a.docs)))
			}
		}
		asks = sc.absorb(asks, rt.scatter(ctx, query, prog.Sig, max, asks), round > 0 && ctx.Err() != nil)
	}
	resp := sc.merge(query, max)
	resp.WallNanos = int64(time.Since(start))
	rt.m.scatter.ObserveSince(start)
	return resp, nil
}

// askPeer sends one scatter request.
func (rt *Router) askPeer(ctx context.Context, peer string, pq PeerQuery) peerAnswer {
	ans := peerAnswer{peer: peer}
	body, err := json.Marshal(pq)
	if err != nil {
		ans.err = err
		return ans
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/cluster/query", bytes.NewReader(body))
	if err != nil {
		ans.err = err
		return ans
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		ans.err = err
		ans.timedOut = errors.Is(err, context.DeadlineExceeded)
		return ans
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var fr store.FanoutResponse
		if err := json.NewDecoder(io.LimitReader(resp.Body, 256<<20)).Decode(&fr); err != nil {
			ans.err = fmt.Errorf("decoding peer response: %w", err)
			return ans
		}
		ans.resp = &fr
	case http.StatusTooManyRequests:
		ans.status = resp.StatusCode
		ans.retryAfter = resp.Header.Get("Retry-After")
	case http.StatusGatewayTimeout:
		ans.status = resp.StatusCode
		ans.timedOut = true
	default:
		ans.status = resp.StatusCode
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		ans.err = fmt.Errorf("peer answered %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return ans
}

// scatterState is one fan-out's assignment and what came back so far.
type scatterState struct {
	rt       *Router
	ring     *Ring
	held     map[string][]string                       // live target → documents it is known to hold
	holders  map[string][]string                       // doc → live holders, preference order
	at       map[string]int                            // doc → index in holders of the target asked
	failed   map[string]bool                           // targets that failed during this scatter
	byDoc    map[string]map[string]store.QueryResponse // doc → target → result
	failedBy map[string]store.FanoutError              // doc → error entry (no healthy result)
}

// assign builds the scatter's first round from the union of known
// catalogs: one ask per live target, carrying its assigned documents
// and the Skip list of the ones it holds but another target answers.
// Documents whose holders are all down become failed entries at once.
func (rt *Router) assign() (*scatterState, []ask) {
	sc := &scatterState{
		rt:       rt,
		ring:     rt.ringFn(),
		held:     map[string][]string{rt.self: rt.st.Names()},
		holders:  make(map[string][]string),
		at:       make(map[string]int),
		failed:   make(map[string]bool),
		byDoc:    make(map[string]map[string]store.QueryResponse),
		failedBy: make(map[string]store.FanoutError),
	}
	downHolders := make(map[string][]string)
	var live []string
	for _, ps := range rt.mem.States() {
		var names []string
		for _, doc := range rt.mem.Names(ps.ID) {
			if store.ValidateDocName(doc) == nil {
				names = append(names, doc)
			}
		}
		if !ps.Up {
			for _, doc := range names {
				downHolders[doc] = append(downHolders[doc], ps.ID)
			}
			continue
		}
		sc.held[ps.ID] = names
		live = append(live, ps.ID)
	}
	live = append(live, rt.self)
	sort.Strings(live) // holder lists come out sorted: pick's tie order

	for _, target := range live {
		for _, doc := range sc.held[target] {
			sc.holders[doc] = append(sc.holders[doc], target)
		}
	}
	for doc, hs := range sc.holders {
		sc.holders[doc] = sc.preference(doc, hs)
	}
	for doc, down := range downHolders {
		if sc.holders[doc] == nil {
			sc.failedBy[doc] = store.FanoutError{Doc: doc,
				Error: fmt.Sprintf("no live holder (down: %s)", strings.Join(down, ", "))}
		}
	}

	asks := make([]ask, 0, len(live))
	for _, target := range live {
		a := ask{target: target}
		for _, doc := range sc.held[target] {
			if sc.holders[doc][0] == target {
				a.docs = append(a.docs, doc)
			} else {
				a.skip = append(a.skip, doc)
			}
		}
		asks = append(asks, a)
	}
	return sc, asks
}

// preference orders holders (sorted) for doc: ring owners first, in
// ring preference order, then any other holder — a copy parked on a
// non-owner — in name order.
func (sc *scatterState) preference(doc string, holders []string) []string {
	if len(holders) < 2 {
		return holders
	}
	out := make([]string, 0, len(holders))
	owners := sc.ring.Owners(doc, sc.rt.rf)
	for _, o := range owners {
		if slices.Contains(holders, o) {
			out = append(out, o)
		}
	}
	for _, h := range holders {
		if !slices.Contains(owners, h) {
			out = append(out, h)
		}
	}
	return out
}

// scatter sends one round of asks concurrently, evaluating this node's
// own ask on the calling goroutine meanwhile. answers[i] answers asks[i].
func (rt *Router) scatter(ctx context.Context, query string, sig *xpath.Signature, max int, asks []ask) []peerAnswer {
	answers := make([]peerAnswer, len(asks))
	wire := sig.Wire()
	local := -1
	var wg sync.WaitGroup
	for i, a := range asks {
		if a.target == rt.self {
			local = i
			continue
		}
		wg.Add(1)
		go func(i int, a ask) {
			defer wg.Done()
			answers[i] = rt.askPeer(ctx, a.target, PeerQuery{Query: query, Sig: wire, Max: max, Skip: a.skip})
		}(i, a)
	}
	if local >= 0 {
		resp, err := rt.st.FanoutLocal(ctx, query, max, asks[local].skip)
		answers[local] = peerAnswer{peer: rt.self, resp: resp, err: err,
			timedOut: errors.Is(err, context.DeadlineExceeded)}
	}
	wg.Wait()
	return answers
}

// absorb folds one round's answers in and returns the hedge round: every
// asked document that came back failed or missing, re-asked of its next
// live holder not yet failed in this scatter. Each hedge target skips
// every document it is known to hold except the ones re-asked of it.
//
// expired says this was a hedge round the scatter deadline cut short. A
// hedge target then had only what the earlier rounds left of the
// deadline, so its timeout is the router's, not evidence against the
// peer: it is not marked down, and an earlier holder's failure entry —
// the peer that actually used up the deadline — stands.
func (sc *scatterState) absorb(asks []ask, answers []peerAnswer, expired bool) []ask {
	var retry []string
	for i, ans := range answers {
		asked := asks[i].docs
		if ans.resp == nil {
			cutShort := expired && ans.timedOut
			if !cutShort {
				sc.rt.notePeerFailure(ans)
			}
			sc.failed[ans.peer] = true
			msg := sc.rt.failureMessage(ans)
			for _, doc := range asked {
				if _, ok := sc.failedBy[doc]; ok && cutShort {
					continue
				}
				sc.failedBy[doc] = store.FanoutError{Doc: doc, Error: msg, RetryAfter: ans.retryAfter}
			}
			retry = append(retry, asked...)
			continue
		}
		returned := make(map[string]bool, len(ans.resp.Docs))
		for _, qr := range ans.resp.Docs {
			// A buggy or version-skewed peer must degrade, not panic:
			// Ring.Owners (via pick) rejects unvalidated names hard, so
			// drop anything a peer returned that no catalog could hold.
			if err := store.ValidateDocName(qr.Doc); err != nil {
				log.Printf("cluster: dropping invalid document name from peer %s: %v", ans.peer, err)
				continue
			}
			m := sc.byDoc[qr.Doc]
			if m == nil {
				m = make(map[string]store.QueryResponse)
				sc.byDoc[qr.Doc] = m
			}
			m[ans.peer] = qr
			returned[qr.Doc] = true
		}
		for _, fe := range ans.resp.Failed {
			sc.failedBy[fe.Doc] = fe
		}
		for _, doc := range asked {
			// A document the target failed or no longer holds goes to
			// its next holder. An omission records nothing: when every
			// holder asked omits it the document was deleted, and when
			// an earlier holder failed it, that failure (with its
			// Retry-After) stands.
			if !returned[doc] {
				retry = append(retry, doc)
			}
		}
	}

	byTarget := make(map[string]map[string]bool)
	for _, doc := range retry {
		if sc.byDoc[doc] != nil {
			continue // another target already answered it
		}
		hs := sc.holders[doc]
		i := sc.at[doc] + 1
		for i < len(hs) && sc.failed[hs[i]] {
			i++
		}
		if i == len(hs) {
			continue // no holder left: failedBy, if any, stands
		}
		sc.at[doc] = i
		if byTarget[hs[i]] == nil {
			byTarget[hs[i]] = make(map[string]bool)
		}
		byTarget[hs[i]][doc] = true
	}
	hedges := make([]ask, 0, len(byTarget))
	for target, docs := range byTarget {
		a := ask{target: target}
		for _, doc := range sc.held[target] {
			if docs[doc] {
				a.docs = append(a.docs, doc)
			} else {
				a.skip = append(a.skip, doc)
			}
		}
		hedges = append(hedges, a)
	}
	return hedges
}

// abandon settles a hedge round the scatter deadline left no time to
// send. A document an earlier holder failed keeps that failure entry; one
// its earlier holder merely omitted gets an entry saying it was never
// re-asked, so it is not silently dropped.
func (sc *scatterState) abandon(asks []ask) {
	for _, a := range asks {
		for _, doc := range a.docs {
			if _, ok := sc.failedBy[doc]; !ok {
				sc.failedBy[doc] = store.FanoutError{Doc: doc,
					Error: fmt.Sprintf("scatter deadline passed before asking peer %s", a.target)}
			}
		}
	}
}

// merge folds the scatter's results into one FanoutResponse:
//
//   - a document answered by more than one target (a copy the
//     assignment did not know of) keeps the first in pick's order and
//     the duplicates are discarded,
//   - documents with no healthy result and an error entry — no live
//     holder, or every holder asked failed — become per-document error
//     entries,
//   - the surviving documents are sorted into global catalog order and
//     the shared paths budget is re-applied, reproducing the
//     single-node truncation byte for byte.
func (sc *scatterState) merge(query string, max int) *store.FanoutResponse {
	rt := sc.rt
	resp := &store.FanoutResponse{Query: query, Docs: []store.QueryResponse{}, Workers: rt.st.Workers()}
	docs := make([]string, 0, len(sc.byDoc))
	for doc := range sc.byDoc {
		docs = append(docs, doc)
		delete(sc.failedBy, doc) // healthy result beats a failure entry
	}
	sort.Strings(docs)
	remaining := max
	for _, doc := range docs {
		candidates := sc.byDoc[doc]
		qr := sc.pick(doc, candidates)
		rt.m.mergedDocs.Inc()
		for i := 1; i < len(candidates); i++ {
			rt.m.dedupedDocs.Inc()
		}
		if len(qr.Paths) > remaining {
			qr.Paths = qr.Paths[:remaining]
		}
		if remaining == 0 && qr.Direct {
			// A synopsis-direct document past budget exhaustion never
			// runs the lazy evaluation on a single node (Paths(0) skips
			// the fallback), so its engine stats stay zero there; the
			// peer rendered with the full per-document cap, so mirror
			// the single-node shape.
			qr.SelectedDAG, qr.VertsBefore, qr.EdgesBefore = 0, 0, 0
			qr.VertsAfter, qr.EdgesAfter = 0, 0
			qr.PrepNanos, qr.EvalNanos = 0, 0
		}
		remaining -= len(qr.Paths)
		if qr.Pruned {
			resp.Pruned++
		}
		if qr.Direct {
			resp.Direct++
		}
		resp.Docs = append(resp.Docs, qr)
		resp.TotalMatches += qr.Matches
	}
	for _, fe := range sc.failedBy {
		resp.Failed = append(resp.Failed, fe)
		rt.m.degradedDocs.Inc()
	}
	sort.Slice(resp.Failed, func(i, j int) bool { return resp.Failed[i].Doc < resp.Failed[j].Doc })
	return resp
}

// pick chooses one candidate result for doc in the assignment's
// preference order: the first owner in ring order, then the
// lexicographically first other holder. Only a document whose answering
// holders the assignment did not know of needs the order computed.
func (sc *scatterState) pick(doc string, candidates map[string]store.QueryResponse) store.QueryResponse {
	for _, h := range sc.holders[doc] {
		if qr, ok := candidates[h]; ok {
			return qr
		}
	}
	peers := make([]string, 0, len(candidates))
	for p := range candidates {
		peers = append(peers, p)
	}
	sort.Strings(peers)
	return candidates[sc.preference(doc, peers)[0]]
}

// failureMessage renders the per-document error text for a failed peer.
func (rt *Router) failureMessage(ans peerAnswer) string {
	switch {
	case ans.status == http.StatusTooManyRequests:
		return fmt.Sprintf("peer %s shed the request (429)", ans.peer)
	case ans.timedOut:
		return fmt.Sprintf("peer %s timed out", ans.peer)
	case ans.err != nil:
		return fmt.Sprintf("peer %s: %v", ans.peer, ans.err)
	default:
		return fmt.Sprintf("peer %s failed (status %d)", ans.peer, ans.status)
	}
}

// notePeerFailure updates per-peer counters and health for one failed
// target. A shed peer is alive — it answered — so only timeouts and
// transport errors make it suspect.
func (rt *Router) notePeerFailure(ans peerAnswer) {
	if ans.peer == rt.self {
		return
	}
	switch {
	case ans.status == http.StatusTooManyRequests:
		rt.m.peerShed(ans.peer).Inc()
	case ans.timedOut:
		rt.m.peerTimeouts(ans.peer).Inc()
		rt.mem.MarkDown(ans.peer, errors.New("scatter timeout"))
	default:
		rt.m.peerErrors(ans.peer).Inc()
		err := ans.err
		if err == nil {
			err = fmt.Errorf("status %d", ans.status)
		}
		rt.mem.MarkDown(ans.peer, err)
	}
}
