package main

// The layer probe times each module's public entry points over the
// workload's catalog and queries, one call at a time, and counts what
// they produce. Counts depend only on the seed, so they repeat exactly.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/skeleton"
	"repro/internal/store"
	"repro/internal/synopsis"
	"repro/internal/xpath"
)

type probeResult struct {
	// Per corpus name: archive and XML bytes of version 0 documents.
	archiveBytes, xmlBytes map[string]int64
	decodedBytes           int64 // the catalog as the store's cache charges it

	splitMBps, encodeMBps, decodeMBps, skeletonMBps float64
	synopsisMsPerDoc, newDocMsPerMB                 float64
	compileUs, evalMsPerDoc, pathsUs                float64

	growth                  float64 // sum VertsAfter / sum VertsBefore over doc x query
	pruneRatio, directRatio float64 // over the 40 fan-outs on a fresh store
	fallbacks               uint64  // planner fallbacks over those fan-outs
}

func mbps(bytes int64, d time.Duration) float64 {
	return ratio(float64(bytes)/(1<<20), d.Seconds())
}

// runProbe times the entry points of codec, container, skeleton,
// synopsis, store, xpath, engine and core, then runs the 40 fan-outs on
// a store of its own under dir to count pruning and planning verdicts.
func runProbe(cat *catalog, dir string) (*probeResult, error) {
	pr := &probeResult{archiveBytes: map[string]int64{}, xmlBytes: map[string]int64{}}
	var (
		xmlTotal, arcTotal                       int64
		tSplit, tEnc, tDec, tSkel, tSyn, tNewDoc time.Duration
	)
	dict := synopsis.NewDict()
	docs := make([]*store.Doc, len(cat.Docs))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for i, d := range cat.Docs {
		t0 := time.Now()
		a, err := container.Split(d.XML)
		tSplit += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("probe: split %s: %w", d.Name, err)
		}
		var buf bytes.Buffer
		t0 = time.Now()
		err = codec.EncodeArchive(&buf, a)
		tEnc += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("probe: encode %s: %w", d.Name, err)
		}
		t0 = time.Now()
		a2, err := codec.DecodeArchiveBytes(buf.Bytes())
		tDec += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("probe: decode %s: %w", d.Name, err)
		}
		t0 = time.Now()
		_, _, err = skeleton.BuildCompressedFrom(a2.Events, skeleton.Options{Mode: skeleton.TagsAll})
		tSkel += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("probe: skeleton %s: %w", d.Name, err)
		}
		t0 = time.Now()
		synopsis.Build(a2.Skeleton, dict, synopsis.Options{})
		tSyn += time.Since(t0)
		t0 = time.Now()
		docs[i], err = store.NewDoc(d.Name, a2)
		tNewDoc += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("probe: NewDoc %s: %w", d.Name, err)
		}
		pr.decodedBytes += docs[i].MemBytes()
		if err := os.WriteFile(filepath.Join(dir, d.Name+store.Ext), buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
		corpus := cat.Corpora[d.Corpus].Name
		pr.xmlBytes[corpus] += int64(len(d.XML))
		pr.archiveBytes[corpus] += int64(buf.Len())
		xmlTotal += int64(len(d.XML))
		arcTotal += int64(buf.Len())
	}
	pr.splitMBps = mbps(xmlTotal, tSplit)
	pr.skeletonMBps = mbps(xmlTotal, tSkel)
	pr.encodeMBps = mbps(arcTotal, tEnc)
	pr.decodeMBps = mbps(arcTotal, tDec)
	pr.synopsisMsPerDoc = ms(tSyn) / float64(len(cat.Docs))
	pr.newDocMsPerMB = ms(tNewDoc) / (float64(arcTotal) / (1 << 20))

	progs := make([]*xpath.Program, len(cat.Queries))
	const compileReps = 20
	t0 := time.Now()
	for r := 0; r < compileReps; r++ {
		for i, q := range cat.Queries {
			p, err := xpath.CompileQuery(q.Text)
			if err != nil {
				return nil, err
			}
			progs[i] = p
		}
	}
	pr.compileUs = float64(time.Since(t0).Microseconds()) / float64(compileReps*len(progs))

	var tEval, tPaths time.Duration
	var before, after, runs int
	for _, d := range docs {
		for _, p := range progs {
			t0 := time.Now()
			res, err := d.Run(p)
			tEval += time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("probe: run on %s: %w", d.Name(), err)
			}
			t0 = time.Now()
			res.Paths(100)
			tPaths += time.Since(t0)
			before += res.VertsBefore
			after += res.VertsAfter
			runs++
		}
	}
	pr.evalMsPerDoc = ms(tEval) / float64(runs)
	pr.pathsUs = float64(tPaths.Microseconds()) / float64(runs)
	pr.growth = ratio(float64(after), float64(before))

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var considered, pruned, direct int
	for _, q := range cat.Queries {
		_, tr, err := st.QueryAllTrace(q.Text, true)
		if err != nil {
			return nil, err
		}
		considered += tr.Considered
		pruned += tr.Pruned
		direct += tr.Direct
	}
	pr.pruneRatio = ratio(float64(pruned), float64(considered))
	pr.directRatio = ratio(float64(direct), float64(considered))
	pr.fallbacks = st.Stats().PlanFallback
	return pr, nil
}
