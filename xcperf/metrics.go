package main

import (
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

const mib = 1 << 20

// Tail percentiles reported end to end: the highest that keeps enough
// samples beyond it on every workload (read-cold completes the fewest
// reads, the set-up's catalog load the fewest writes).
const (
	readTail   = 0.95
	ingestTail = 0.90
)

// endToEnd assembles the metrics a user of the system sees. acks are
// the ingest latencies: the open-loop writer's, or on workloads without
// one the set-up's catalog load through POST /docs.
func endToEnd(setups []float64, acks samples, ws *windowStats, storedPerXML float64) map[string]metric {
	f, d := ws.reads(kindFanout), ws.reads(kindDoc)
	return map[string]metric{
		"setup_s":                   {medianFloat(setups), "s"},
		"fanout_p50_ms":             {ms(f.quantile(0.5)), "ms"},
		"fanout_p95_ms":             {ms(f.quantile(readTail)), "ms"},
		"doc_p50_ms":                {ms(d.quantile(0.5)), "ms"},
		"doc_p95_ms":                {ms(d.quantile(readTail)), "ms"},
		"read_qps":                  {ws.qps(), "1/s"},
		"ingest_p90_ms":             {ms(acks.quantile(ingestTail)), "ms"},
		"stored_bytes_per_xml_byte": {storedPerXML, "ratio"},
		"heap_peak_mb":              {float64(ws.heap) / mib, "MB"},
	}
}

// sumStats adds a store.Stats field over nodes, after minus before.
func sumStats(after, before []nodeSnap, field func(store.Stats) uint64) float64 {
	var n float64
	for i := range after {
		n += float64(field(after[i].st)) - float64(field(before[i].st))
	}
	return n
}

// histDelta is the histogram of observations made between two
// snapshots of the same series, summed over nodes.
func histDelta(after, before []nodeSnap, pick func(nodeSnap) obs.HistSnapshot) obs.HistSnapshot {
	var d obs.HistSnapshot
	for i := range after {
		a, b := pick(after[i]), pick(before[i])
		for j := range d.Buckets {
			d.Buckets[j] += a.Buckets[j] - b.Buckets[j]
		}
		d.Count += a.Count - b.Count
		d.Sum += a.Sum - b.Sum
		if a.Max > d.Max {
			d.Max = a.Max
		}
	}
	return d
}

// perLayer assembles the traced run's per-layer metrics. Write-path
// metrics come from the measured window on a workload with a writer,
// and from the set-up's catalog load otherwise; a layer a workload does
// not run reads 0.
func perLayer(s *stack, ws, plain *windowStats, pr *probeResult) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	rec, before, after := ws.rec, ws.before, ws.after
	f, d := ws.reads(kindFanout), ws.reads(kindDoc)
	reads := float64(len(f) + len(d))
	qps, plainQPS := ws.qps(), plain.qps()

	// Load generator and tracing.
	put("trace_overhead", ratio(plainQPS-qps, plainQPS), "ratio")
	put("loadgen.fanout_samples", float64(len(f)), "count")
	put("loadgen.doc_samples", float64(len(d)), "count")
	attempted, failed, _ := ws.counts()
	put("failed_ratio", ratio(float64(failed), float64(attempted)), "ratio")
	gone := 0
	for _, r := range ws.readers {
		gone += r.gone
	}
	put("loadgen.deleted_as_failed", float64(gone), "count")
	var late samples
	behind := 0.0
	if w := ws.writer; w != nil {
		late = w.late
		put("loadgen.write_samples", float64(len(w.lat)), "count")
		if late.quantile(0.99) > time.Duration(float64(time.Second)/s.w.writeRate) {
			behind = 1
			logf("WARNING: the open-loop writer fell behind its schedule (lateness p99 %v)", late.quantile(0.99))
		}
	} else {
		put("loadgen.write_samples", 0, "count")
	}
	put("loadgen.writer_late_p99_ms", ms(late.quantile(0.99)), "ms")
	put("loadgen.writer_behind", behind, "flag")

	// store: HTTP face, stages, cache.
	put("store.handler_p50_ms", ms(rec.storeSpans.quantile(0.5)), "ms")
	var transport samples
	var stagesNs, spansNs int64
	traced := 0
	for _, r := range ws.readers {
		for _, t := range r.traced {
			span, ok := rec.entry[t.id]
			if !ok {
				continue
			}
			transport = append(transport, t.latency-span)
			if t.stagesNs >= 0 {
				stagesNs += t.stagesNs
				spansNs += int64(span)
				traced++
			}
		}
	}
	put("store.transport_p50_ms", ms(transport.quantile(0.5)), "ms")
	for _, st := range []string{"plan", "prune", "direct", "load", "eval", "materialize"} {
		var ns int64
		for _, r := range ws.readers {
			ns += r.stages[st]
		}
		put("store."+st+"_ms", ratio(float64(ns)/1e6, float64(traced)), "ms")
	}
	put("store.unattributed_share", 1-ratio(float64(stagesNs), float64(spansNs)), "ratio")
	hits := sumStats(after, before, func(s store.Stats) uint64 { return s.DocHits })
	misses := sumStats(after, before, func(s store.Stats) uint64 { return s.DocMisses })
	put("store.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	put("store.evictions_per_req", ratio(sumStats(after, before, func(s store.Stats) uint64 { return s.Evictions }), reads), "1/req")
	put("store.decode_mb_per_req", ratio(sumStats(after, before, func(s store.Stats) uint64 { return s.DecodeBytes })/mib, reads), "MB/req")
	var scannedF, scannedD int
	for _, r := range ws.readers {
		scannedF += r.scanned[kindFanout]
		scannedD += r.scanned[kindDoc]
	}
	put("store.docs_scanned_per_fanout", ratio(float64(scannedF), float64(len(f))), "docs")
	put("store.newdoc_ms_per_mb", pr.newDocMsPerMB, "ms/MB")
	var budget int64
	for _, a := range after {
		budget += a.st.BudgetBytes
	}
	put("store.cache_budget_mb", float64(budget)/mib, "MB")
	put("store.decoded_catalog_mb", float64(pr.decodedBytes)/mib, "MB")

	// synopsis, plan, xpath.
	put("synopsis.prune_ratio", pr.pruneRatio, "ratio")
	put("plan.direct_ratio", pr.directRatio, "ratio")
	put("plan.fallbacks", float64(pr.fallbacks), "count")
	ph := sumStats(after, before, func(s store.Stats) uint64 { return s.ProgramHits })
	pm := sumStats(after, before, func(s store.Stats) uint64 { return s.ProgramMisses })
	put("xpath.program_hit_ratio", ratio(ph, ph+pm), "ratio")
	put("xpath.compile_us", pr.compileUs, "us")
	put("synopsis.build_ms_per_doc", pr.synopsisMsPerDoc, "ms")

	// engine, core.
	put("engine.eval_ms_per_doc", pr.evalMsPerDoc, "ms")
	put("engine.growth_ratio", pr.growth, "ratio")
	put("core.paths_us", pr.pathsUs, "us")

	// codec, container, skeleton.
	put("codec.decode_mb_per_s", pr.decodeMBps, "MB/s")
	put("codec.encode_mb_per_s", pr.encodeMBps, "MB/s")
	put("container.split_mb_per_s", pr.splitMBps, "MB/s")
	put("skeleton.build_mb_per_s", pr.skeletonMBps, "MB/s")
	for c, x := range pr.xmlBytes {
		put("codec.bytes_per_xml_byte."+c, ratio(float64(pr.archiveBytes[c]), float64(x)), "ratio")
	}

	// bundle.
	put("bundle.reads_per_req", ratio(sumStats(after, before, func(s store.Stats) uint64 { return s.BundleReads }), reads), "1/req")
	put("bundle.read_mb_per_req", ratio(sumStats(after, before, func(s store.Stats) uint64 { return s.BundleReadBytes })/mib, reads), "MB/req")
	var packed, bundleBytes, deadBytes int64
	for _, a := range after {
		packed += int64(a.st.BundledDocs)
		bundleBytes += a.st.BundleBytes
		deadBytes += a.st.BundleDeadBytes
	}
	put("bundle.packed_docs", float64(packed), "count")
	put("bundle.dead_ratio", ratio(float64(deadBytes), float64(bundleBytes)), "ratio")

	// ingest: the window on a workload with a writer, else the load.
	wrec, wfs, wdur := s.setupRec, s.setupFS, s.loadDur
	wb, wa := make([]nodeSnap, len(s.loaded)), s.loaded
	if s.w.writer {
		wrec, wfs, wdur, wb, wa = rec, ws.fs, ws.dur, before, after
	}
	put("ingest.add_p50_ms", ms(wrec.adds.quantile(0.5)), "ms")
	wal := histDelta(wa, wb, func(n nodeSnap) obs.HistSnapshot { return n.wal })
	put("ingest.wal_append_p50_ms", float64(wal.Quantile(0.5))/1e6, "ms")
	writes := float64(len(wrec.adds) + wrec.deletes)
	put("ingest.fsyncs_per_write", ratio(float64(wfs.Syncs), writes), "1/write")
	put("ingest.bytes_written_per_xml_byte", ratio(float64(wfs.WriteBytes), float64(wrec.addBytes)), "ratio")
	var compactions float64
	for i := range wa {
		compactions += float64(wa[i].ing.Compactions) - float64(wb[i].ing.Compactions)
	}
	put("ingest.compactions", compactions, "count")
	comp := histDelta(wa, wb, func(n nodeSnap) obs.HistSnapshot { return n.compaction })
	put("ingest.compaction_busy_share", ratio(float64(comp.Sum), float64(wdur)), "ratio")

	// fault: the I/O seam.
	put("fault.read_mb_per_req", ratio(float64(ws.fs.ReadBytes)/mib, reads), "MB/req")

	// cluster.
	put("cluster.router_p50_ms", ms(rec.routerSpans.quantile(0.5)), "ms")
	put("cluster.peer_rpc_p50_ms", ms(rec.peerRPCs.quantile(0.5)), "ms")
	put("cluster.peer_rpcs_per_fanout", ratio(float64(len(rec.peerRPCs)), float64(len(rec.routerSpans))), "count")
	put("cluster.merge_ms", ms(rec.mergeSpans.mean()), "ms")
	// Every single-document read evaluates once; the rest are fan-outs'.
	evals := sumStats(after, before, func(s store.Stats) uint64 { return s.Queries }) - float64(scannedD)
	put("cluster.evals_per_scanned_doc", ratio(evals, float64(scannedF)), "ratio")
	put("cluster.replicate_mb", float64(s.setupRec.replicated)/mib, "MB")
	put("cluster.replication_drain_s", s.replDrain.Seconds(), "s")
	var degraded float64
	for i := range after {
		degraded += float64(after[i].degraded) - float64(before[i].degraded)
	}
	put("cluster.degraded_docs", degraded, "count")
	return m
}
