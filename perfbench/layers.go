package main

import (
	"fmt"
	"time"

	"repro/internal/metrics"
)

// layerReport turns the traced run's spans and counters into the per-layer
// metrics. Values are means per measured query unless the note says
// otherwise.
func layerReport(in *inputs, s *layerSums, pc *pipeline, byName, setup map[string]time.Duration,
	cache0, cache1 metrics.CacheSnapshot, replay time.Duration, spanPath string) *report {
	rep := newReport()
	q := float64(max(s.queries, 1))
	us := func(d time.Duration) float64 { return float64(d) / 1e3 / q }
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	perQ := func(n int64) float64 { return float64(n) / q }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	rep.metric("serve.self_us", us(s.a-s.b), "us", "mirror A (handler) minus mirror B (engine)")
	rep.metric("serve.response_bytes", perQ(s.responseBytes), "bytes", "")
	rep.metric("rox.gather_us", us(s.b-s.c), "us", "mirror B minus the layer spans of mirror C: gather, read-ahead and per-query glue")
	rep.metric("rox.allocs_per_query", perQ(int64(s.allocObjs)), "count", "heap objects allocated by mirror B")
	rep.metric("rox.alloc_bytes_per_query", perQ(int64(s.allocBytes)), "bytes", "")
	rep.metric("xquery.compile_us", us(byName["xquery.compile"]), "us", "")
	rep.metric("xquery.for_shard_us", us(byName["xquery.for_shard"]), "us", "")
	rep.metric("joingraph.fingerprint_us", us(byName["joingraph.fingerprint"]), "us", "")

	d := metrics.CacheSnapshot{
		Hits: cache1.Hits - cache0.Hits, StaleHits: cache1.StaleHits - cache0.StaleHits,
		Misses: cache1.Misses - cache0.Misses, Drifts: cache1.Drifts - cache0.Drifts,
		Evictions: cache1.Evictions - cache0.Evictions,
	}
	lookups := float64(d.Hits + d.StaleHits + d.Misses)
	rep.metric("plancache.lookup_us", us(byName["plancache.lookup"]), "us", "")
	rep.metric("plancache.hit_ratio", ratio(float64(d.Hits+d.StaleHits-d.Drifts), lookups), "fraction",
		fmt.Sprintf("served from the cache, of %.0f per-shard lookups", lookups))
	rep.metric("plancache.stale_ratio", ratio(float64(d.StaleHits), lookups), "fraction", "")
	rep.metric("plancache.drifts", float64(d.Drifts), "count", "total over the run")
	rep.metric("plancache.evictions", float64(d.Evictions), "count", "total over the run")

	c := pc.c
	rep.metric("core.run_ms", ms(byName["core.run"])/q, "ms", fmt.Sprintf("%d ROX runs", c.runs))
	rep.metric("core.sample_overhead_ratio", ratio(float64(byName["core.run"]), float64(byName["bench.pure_plan"])), "ratio",
		"ROX run time over its discovered plan run alone")
	rep.metric("core.sample_tuples_per_query", perQ(c.sampleTuples), "tuples", "")
	rep.metric("core.explorations_per_query", perQ(int64(c.explorations)), "count", "")

	rep.metric("plan.vertex_table_us", us(byName["plan.vertex_table"]), "us", "replays only")
	rep.metric("plan.vertex_table_nodes", perQ(c.vertexNodes), "nodes", "")
	rep.metric("plan.exec_edge_us", us(byName["plan.exec_edge"]), "us", "")
	rep.metric("plan.exec_tuples_per_query", perQ(c.execTuples), "tuples", "replays and ROX runs")
	rep.metric("plan.intermediate_rows_per_query", perQ(c.intermediate), "rows", "")
	rep.metric("plan.tail_us", us(byName["plan.tail"]), "us", "")
	rep.metric("plan.scanned_per_returned", ratio(float64(c.scanned), float64(c.returned)), "ratio", "")
	rep.metric("plan.fold_us", us(byName["plan.fold"]), "us", "")

	rep.metric("xmltree.serialize_us", us(byName["xmltree.serialize"]), "us", "")
	rep.metric("xmltree.serialize_bytes", perQ(c.serializeBytes), "bytes", "")
	rep.metric("xmltree.parse_ms", ms(setup["xmltree.parse"]), "ms", "corpus load, total")
	rep.metric("xmltree.packed_open_ms", ms(setup["xmltree.packed_open"]), "ms", "corpus load, total")
	rep.metric("index.build_ms", ms(setup["index.build"]), "ms", "corpus load, total")

	// Commits: the compacting ones are reported on their own.
	var plain, compacting []time.Duration
	for i, dur := range s.commitDur {
		if s.compacting[i] {
			compacting = append(compacting, dur)
		} else {
			plain = append(plain, dur)
		}
	}
	perCommitUS := func(d time.Duration) float64 { return float64(d) / 1e3 / float64(max(s.commits, 1)) }
	commitUS, walUS := meanUS(plain), perCommitUS(s.walDur)
	rep.metric("ingest.append_us", perCommitUS(s.appendDur), "us", "per commit")
	rep.metric("ingest.commit_us", commitUS, "us", "per commit, compacting commits excluded")
	rep.metric("ingest.wal_commit_us", walUS, "us", "standalone WAL append+commit of the same batches")
	rep.metric("ingest.publish_us", max(commitUS-walUS, 0), "us", "commit minus WAL")
	rep.metric("ingest.compact_ms", meanUS(compacting)/1e3, "ms", "per compacting commit")
	rep.metric("ingest.compactions", float64(s.compactions), "count", "total over the run")
	rep.metric("ingest.commit_growth", commitGrowth(s.commitDur), "ratio", "last tenth of commits over the first tenth")
	rep.metric("ingest.write_amp", ratio(float64(s.walBytes+s.snapshotBytes), float64(s.fragBytes)), "ratio",
		"(WAL + snapshot bytes) over fragment bytes")
	rep.metric("ingest.replay_ms", ms(replay), "ms", "Engine.OpenIngestDir after the run")
	rep.metric("trace.overhead_ratio", ratio(float64(s.b), float64(s.b0)), "ratio", "mirror B with spans over its untraced twin")

	rep.note("mirror_a_ms", ms(s.a)/q, "ms", "per query")
	rep.note("mirror_b_ms", ms(s.b)/q, "ms", "per query")
	rep.note("mirror_c_ms", ms(s.c)/q, "ms", "per query, layer spans only")
	if s.firstErr != "" {
		rep.lines = append(rep.lines, "first failure: "+s.firstErr)
	}
	rep.res.Attempted = 3*s.queries + 3*s.commits
	rep.res.Failed = s.mismatches
	rep.res.Correct = s.mismatches == 0
	rep.info["traced_gomaxprocs"] = 1
	rep.info["span_file"] = spanPath
	rep.info["measured"] = map[string]int{"queries": s.queries, "commits": s.commits}
	rep.info["rates"] = map[string]float64{"read_per_s": in.readRate, "commit_per_s": in.writeRate}
	rep.info["corpus"] = map[string]any{"nodes": in.nodes, "bytes": in.bytes, "files": len(in.packed) + len(in.xmlDocs)}
	return rep
}

func meanUS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return float64(t) / 1e3 / float64(len(ds))
}

// commitGrowth is the mean commit time of the last tenth of the commits
// over that of the first tenth.
func commitGrowth(ds []time.Duration) float64 {
	n := len(ds) / 10
	if n == 0 {
		return 0
	}
	first, last := meanUS(ds[:n]), meanUS(ds[len(ds)-n:])
	if first == 0 {
		return 0
	}
	return last / first
}
