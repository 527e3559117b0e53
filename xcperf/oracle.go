package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"

	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/xpath"
)

// absentBit marks "the document may be absent" in a name's state mask;
// bit v marks "version v may be visible".
const absentBit = 1 << 31

// oracle holds every (document version, query) answer computed by the
// uncompressed baseline evaluator, and for each name the set of states
// a reader may legitimately observe.
type oracle struct {
	cat     *catalog
	answers map[*doc][]uint64 // per query index
	states  map[string]*atomic.Uint32
}

// newOracle evaluates all queries on every version of every document
// with internal/baseline, using workers goroutines.
func newOracle(cat *catalog, workers int) (*oracle, error) {
	progs := make([]*xpath.Program, len(cat.Queries))
	seen := map[string]bool{}
	var patterns []string
	for i, q := range cat.Queries {
		p, err := xpath.CompileQuery(q.Text)
		if err != nil {
			return nil, fmt.Errorf("oracle: compiling %q: %w", q.Text, err)
		}
		progs[i] = p
		for _, s := range p.Strings {
			if !seen[s] {
				seen[s] = true
				patterns = append(patterns, s)
			}
		}
	}
	sort.Strings(patterns)
	var all []*doc
	for _, d := range cat.Docs {
		all = append(all, cat.Versions[d.Name]...)
	}
	answers := make([][]uint64, len(all))
	errs := make([]error, len(all))
	engine.ForEach(len(all), workers, func(i int) {
		tree, err := baseline.Build(all[i].XML, patterns)
		if err != nil {
			errs[i] = err
			return
		}
		answers[i] = make([]uint64, len(progs))
		for qi, p := range progs {
			set, err := baseline.Eval(tree, p)
			if err != nil {
				errs[i] = err
				return
			}
			answers[i][qi] = uint64(baseline.Count(set))
		}
	})
	o := &oracle{cat: cat, answers: make(map[*doc][]uint64, len(all)), states: make(map[string]*atomic.Uint32)}
	for i, d := range all {
		if errs[i] != nil {
			return nil, fmt.Errorf("oracle: %s v%d: %w", d.Name, d.Version, errs[i])
		}
		o.answers[d] = answers[i]
	}
	for _, d := range cat.Docs {
		st := new(atomic.Uint32)
		st.Store(1) // version 0
		o.states[d.Name] = st
	}
	return o, nil
}

// allowVersion and allowAbsent widen what readers may see of name: a
// write is visible from the moment it is sent, so the writer calls
// them before sending.
func (o *oracle) allowVersion(name string, version int) { orBits(o.states[name], 1<<version) }

func (o *oracle) allowAbsent(name string) { orBits(o.states[name], absentBit) }

func orBits(st *atomic.Uint32, bits uint32) {
	for {
		old := st.Load()
		if st.CompareAndSwap(old, old|bits) {
			return
		}
	}
}

// settle pins name to exactly one version, once no write is in flight.
func (o *oracle) settle(name string, version int) {
	o.states[name].Store(uint32(1) << version)
}

// matchesOK reports whether matches is the answer of query q on any
// version of name a reader may currently see.
func (o *oracle) matchesOK(name string, q int, matches uint64) bool {
	st, ok := o.states[name]
	if !ok {
		return false
	}
	mask := st.Load()
	for v, d := range o.cat.Versions[name] {
		if mask&(1<<v) != 0 && o.answers[d][q] == matches {
			return true
		}
	}
	return false
}

func (o *oracle) absentOK(name string) bool {
	st, ok := o.states[name]
	return ok && st.Load()&absentBit != 0
}

// fanoutBody is the part of a /query fan-out response the oracle checks.
type fanoutBody struct {
	Docs []struct {
		Doc     string `json:"doc"`
		Matches uint64 `json:"matches"`
		Pruned  bool   `json:"pruned"`
		Direct  bool   `json:"direct"`
	} `json:"docs"`
	Failed []struct {
		Doc   string `json:"doc"`
		Error string `json:"error"`
	} `json:"failed"`
	TotalMatches uint64 `json:"total_matches"`
}

// docBody is the part of a single-document /query response the oracle
// checks.
type docBody struct {
	Doc     string `json:"doc"`
	Matches uint64 `json:"matches"`
}

// readResult is what checking one response learned besides its verdict.
type readResult struct {
	scanned int // documents evaluated: neither pruned nor answered from the synopsis
	// goneAsFailed counts failed entries for documents deleted while the
	// fan-out ran (see checkFanout).
	goneAsFailed int
}

// checkFanout verifies a fan-out response for query q: no failed
// entries, every document's matches equal to the oracle, and the
// document set equal to the catalog.
func (o *oracle) checkFanout(q int, status int, body []byte) (readResult, error) {
	var res readResult
	if status != http.StatusOK {
		return res, fmt.Errorf("fan-out %q: status %d: %s", o.cat.Queries[q].Text, status, clip(body))
	}
	var fb fanoutBody
	if err := json.Unmarshal(body, &fb); err != nil {
		return res, fmt.Errorf("fan-out %q: decoding: %w", o.cat.Queries[q].Text, err)
	}
	seen := make(map[string]bool, len(fb.Docs))
	// A document deleted after the fan-out listed the catalog comes back
	// as a failed entry saying it no longer exists. That is its deleted
	// state, allowed only while a delete of it may be in flight; any
	// other failed entry fails the response.
	for _, f := range fb.Failed {
		if !o.absentOK(f.Doc) || f.Error != fmt.Sprintf("store: no document %q", f.Doc) {
			return res, fmt.Errorf("fan-out %q: failed document %s: %s", o.cat.Queries[q].Text, f.Doc, f.Error)
		}
		seen[f.Doc] = true
		res.goneAsFailed++
	}
	var total uint64
	for _, d := range fb.Docs {
		if seen[d.Doc] {
			return res, fmt.Errorf("fan-out %q: document %s listed twice", o.cat.Queries[q].Text, d.Doc)
		}
		seen[d.Doc] = true
		if !o.matchesOK(d.Doc, q, d.Matches) {
			return res, fmt.Errorf("fan-out %q: %s matches %d, oracle disagrees", o.cat.Queries[q].Text, d.Doc, d.Matches)
		}
		total += d.Matches
		if !d.Pruned && !d.Direct {
			res.scanned++
		}
	}
	if total != fb.TotalMatches {
		return res, fmt.Errorf("fan-out %q: total_matches %d != sum %d", o.cat.Queries[q].Text, fb.TotalMatches, total)
	}
	for _, d := range o.cat.Docs {
		if !seen[d.Name] && !o.absentOK(d.Name) {
			return res, fmt.Errorf("fan-out %q: document %s missing", o.cat.Queries[q].Text, d.Name)
		}
	}
	return res, nil
}

// checkDoc verifies a single-document response for query q on name.
func (o *oracle) checkDoc(name string, q int, status int, body []byte) (readResult, error) {
	res := readResult{scanned: 1}
	if status == http.StatusNotFound && o.absentOK(name) {
		return readResult{}, nil
	}
	if status != http.StatusOK {
		return res, fmt.Errorf("doc %s %q: status %d: %s", name, o.cat.Queries[q].Text, status, clip(body))
	}
	var db docBody
	if err := json.Unmarshal(body, &db); err != nil {
		return res, fmt.Errorf("doc %s %q: decoding: %w", name, o.cat.Queries[q].Text, err)
	}
	if db.Doc != name || !o.matchesOK(name, q, db.Matches) {
		return res, fmt.Errorf("doc %s %q: matches %d, oracle disagrees", name, o.cat.Queries[q].Text, db.Matches)
	}
	return res, nil
}

func clip(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(bytes.TrimSpace(b))
}

// timingFields are the response fields that measure this run rather
// than describe the answer; normalize zeroes them.
var timingFields = map[string]bool{"wall_ns": true, "workers": true, "prep_ns": true, "eval_ns": true, "trace": true}

// normalize re-encodes a JSON response with its timing fields removed,
// so two servers' answers to one request compare byte for byte.
func normalize(body []byte) ([]byte, error) {
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, err
	}
	return json.Marshal(stripTiming(v))
}

func stripTiming(v any) any {
	switch t := v.(type) {
	case map[string]any:
		for k := range t {
			if timingFields[k] {
				delete(t, k)
			} else {
				t[k] = stripTiming(t[k])
			}
		}
	case []any:
		for i := range t {
			t[i] = stripTiming(t[i])
		}
	}
	return v
}
