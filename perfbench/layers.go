package main

import (
	"fmt"
	"time"
)

// reportedOps are the operators whose self time and input rows are
// reported per query.
var reportedOps = []string{"iscan", "scan", "filter", "project", "join", "agg", "sort"}

// layerMetrics derives the per-layer figures of a traced run. Figures
// from the analyzed trailers are averaged over the traced requests;
// plan-cache and planner counters are the /metrics deltas over the whole
// loop (m0 before, m1 after); allocBytes is the servers' allocation over
// the whole loop. A figure for a layer the workload does not reach reads
// 0.
func layerMetrics(all []sample, m0, m1 map[string]float64, allocBytes float64) (map[string]metric, error) {
	var traced []sample
	var plain, tagged []time.Duration
	var okCount int
	for _, s := range all {
		if !s.ok {
			continue
		}
		okCount++
		if s.traced {
			traced = append(traced, s)
			tagged = append(tagged, s.latency)
		} else {
			plain = append(plain, s.latency)
		}
	}
	if len(traced) == 0 {
		return nil, fmt.Errorf("no traced request completed")
	}
	n := float64(len(traced))
	out := map[string]metric{}
	set := func(name, unit string, v float64) { out[name] = metric{Value: v, Unit: unit} }

	var plan, queued, execute, stream, overhead float64
	var streamedBytes, streamedRows, fixes, hits, misses, reads, writes, writeBytes float64
	var frags, retries, wire float64
	var recvWait time.Duration
	ops := opTotals{self: map[string]time.Duration{}, rowsIn: map[string]int64{}}
	for _, s := range traced {
		tr := s.tr
		if tr.Phases != nil {
			plan += tr.Phases.PlanMs
			queued += tr.Phases.QueuedMs
			execute += tr.Phases.ExecuteMs
			stream += tr.Phases.StreamMs
		}
		overhead += ms(s.latency) - tr.ElapsedMs
		if r := tr.Resources; r != nil {
			streamedBytes += float64(r.BytesStreamed)
			streamedRows += float64(r.RowsStreamed)
			fixes += float64(r.BufferFixes)
			hits += float64(r.BufferHits)
			misses += float64(r.BufferMisses)
			reads += float64(r.DeviceReads)
			writes += float64(r.DeviceWrites)
			writeBytes += float64(r.DeviceWriteBytes)
		}
		t, err := parseAnalyze(tr.Analyze)
		if err != nil {
			return nil, fmt.Errorf("query %s: %w", tr.QueryID, err)
		}
		for k, v := range t.self {
			ops.self[k] += v
		}
		for k, v := range t.rowsIn {
			ops.rowsIn[k] += v
		}
		ops.packets += t.packets
		ops.poolHits += t.poolHits
		ops.poolMisses += t.poolMisses
		ops.stall += t.stall
		ops.wait += t.wait
		if d := tr.Dist; d != nil {
			frags += float64(len(d.Fragments))
			retries += float64(d.Retries)
			wire += float64(d.WireRecvBytes)
			// A remote exchange's consumer pulls from the wire; its whole
			// open+next+close is time spent receiving.
			recvWait += t.exchangeTime
		}
	}

	set("server.plan_ms", "ms", plan/n)
	set("server.queued_ms", "ms", queued/n)
	set("server.execute_ms", "ms", execute/n)
	set("server.stream_ms", "ms", stream/n)
	set("server.http_overhead_ms", "ms", overhead/n)
	set("server.bytes_per_row", "B", ratio(streamedBytes, streamedRows))
	cacheHits := m1["volcano_server_plan_cache_hits_total"] - m0["volcano_server_plan_cache_hits_total"]
	cacheMisses := m1["volcano_server_plan_cache_misses_total"] - m0["volcano_server_plan_cache_misses_total"]
	set("server.plan_cache_hit_ratio", "ratio", ratio(cacheHits, cacheHits+cacheMisses))
	set("planner.replans", "count", m1["volcano_planner_replans_total"]-m0["volcano_planner_replans_total"])

	for _, op := range reportedOps {
		set("op."+op+".self_ms", "ms", ms(ops.self[op])/n)
		set("op."+op+".rows_in", "count", float64(ops.rowsIn[op])/n)
	}
	sourceRows := float64(ops.rowsIn["scan"]+ops.rowsIn["iscan"]) / n
	set("alloc_b_per_input_row", "B", ratio(allocBytes/float64(okCount), sourceRows))

	set("exchange.packets_per_query", "count", float64(ops.packets)/n)
	set("exchange.consumer_wait_ms", "ms", ms(ops.wait)/n)
	set("exchange.producer_stall_ms", "ms", ms(ops.stall)/n)
	set("exchange.pool_hit_ratio", "ratio", ratio(float64(ops.poolHits), float64(ops.poolHits+ops.poolMisses)))

	set("buffer.fixes_per_query", "count", fixes/n)
	set("buffer.hit_ratio", "ratio", ratio(hits, fixes))
	set("buffer.misses_per_query", "count", misses/n)
	set("device.reads_per_query", "count", reads/n)
	set("device.writes_per_query", "count", writes/n)
	set("device.write_bytes_per_query", "B", writeBytes/n)

	set("dist.fragments_per_query", "count", frags/n)
	set("dist.retries", "count", retries)
	set("dist.wire_bytes_per_query", "B", wire/n)
	set("dist.recv_wait_ms", "ms", ms(recvWait)/n)

	pct := func(ds []time.Duration, p float64) float64 { return ms(percentile(sortedDurations(ds), p)) }
	set("trace.overhead_share", "ratio", ratio(pct(tagged, 50)-pct(plain, 50), pct(plain, 50)))
	// The tail of the untraced half: only point-lookup's sample puts ten
	// or more requests beyond it.
	set("p99_ms", "ms", pct(plain, 99))
	return out, nil
}
