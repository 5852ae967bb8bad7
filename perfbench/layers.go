package main

import (
	"errors"
	"fmt"
	"time"

	"bvtree/internal/obs"
)

// tracedLoad runs loops against the traced server on the stopped
// cluster dir, reads its layers out at the start and end of the
// measured window and returns the per-layer metrics. loadErr reports a
// wrong answer; err a failure to run.
func tracedLoad(cfg config, dir string, warmup time.Duration, loops []connLoop, untraced *recorder) (m map[string]metric, loadErr, err error) {
	ts, err := startTraced(cfg.self, dir)
	if err != nil {
		return nil, nil, err
	}
	defer ts.close()
	ph := newPhase(warmup, cfg.measure)
	var before layerSnap
	var beforeErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(time.Until(ph.t0))
		before, beforeErr = ts.snap("snap")
	}()
	rec, loadErr := runLoad(ts.addr, ph, loops)
	<-done
	if rec == nil {
		return nil, nil, loadErr
	}
	after, err := ts.snap("stats")
	if err = errors.Join(beforeErr, err, ts.close()); err != nil {
		return nil, nil, err
	}
	r := &report{out: cfg.out}
	layerMetrics(r, cfg, rec, untraced, &before, &after)
	return r.metrics, loadErr, nil
}

// hdelta is the count and sum a histogram gained between two snapshots.
type hdelta struct{ n, sum float64 }

func hd(a, b obs.HistogramSnapshot) hdelta {
	return hdelta{float64(b.Count - a.Count), float64(b.Sum - a.Sum)}
}

func (h *hdelta) add(o hdelta) { h.n += o.n; h.sum += o.sum }

// meanUS reads a nanosecond histogram delta as a mean in µs.
func (h hdelta) meanUS() float64 { return ratio(h.sum, h.n) / 1e3 }

func (h hdelta) mean() float64 { return ratio(h.sum, h.n) }

// layerMetrics derives every per-layer metric from two read-outs of the
// traced server (a at the start of the window, b at its end) and the
// client's view of the same window. "Per op" means per request of any
// class; shard.* metrics are per request of the workload's primary
// class. See README.md for the end-to-end metric each one should move.
func layerMetrics(r *report, cfg config, rec, untraced *recorder, a, b *layerSnap) {
	p := primary(cfg.workload)
	reqs := func(c opClass) float64 {
		n := classNames[c]
		return float64(b.Server.Ops[n].Requests - a.Server.Ops[n].Requests)
	}
	exec := func(c opClass) hdelta {
		n := classNames[c]
		return hd(a.Server.Ops[n].Latency, b.Server.Ops[n].Latency)
	}
	var all float64
	for c := opClass(0); c < numClasses; c++ {
		all += reqs(c)
	}
	inserts, queries := reqs(clsInsert), reqs(clsRange)+reqs(clsCount)
	eng := func(c opClass) busySnap { return b.Engine[c].sub(a.Engine[c]) }

	// Per-class traced view, printed for attribution.
	for c := opClass(0); c < numClasses; c++ {
		if reqs(c) == 0 {
			continue
		}
		e := eng(c)
		fmt.Fprintf(r.out, "traced %-8s requests=%-8.0f client_mean_us=%.1f exec_mean_us=%.1f engine_calls_per_req=%.2f engine_wall_us=%.1f\n",
			classNames[c], reqs(c), rec.meanUS(c), exec(c).meanUS(),
			ratio(float64(e.Calls), reqs(c)), engineWallUS(c, e, reqs(c)))
	}

	// shard: wire, router, scatter/gather (primary class).
	pe := eng(p)
	execUS := exec(p).meanUS()
	bytes := float64(b.Server.BytesIn + b.Server.BytesOut - a.Server.BytesIn - a.Server.BytesOut)
	r.add("shard.wire_us", rec.meanUS(p)-execUS, "us", len(rec.lat[p]))
	r.add("shard.exec_us", execUS, "us", int(reqs(p)))
	r.add("shard.router_self_us", execUS-engineWallUS(p, pe, reqs(p)), "us", int(reqs(p)))
	r.add("shard.fanout", ratio(float64(pe.Calls), reqs(p)), "count", int(reqs(p)))
	r.add("shard.bytes_per_op", ratio(bytes, all), "B", int(all))

	// bvtree: the tree layer over every shard.
	var (
		engineNs                                      float64
		tc                                            obs.TreeCountersSnapshot
		nodeReads, hits, misses, slotReads, evictions float64
		captures                                      float64
		appendD, fsyncD, waitD, batchD                hdelta
		guardP99                                      float64
	)
	for c := opClass(0); c < numClasses; c++ {
		engineNs += float64(eng(c).SumNs)
	}
	for i := range b.Shards {
		sa, sb := &a.Shards[i], &b.Shards[i]
		ca, cb := sa.Tree.Counters, sb.Tree.Counters
		tc.NodeAccesses += cb.NodeAccesses - ca.NodeAccesses
		tc.DataSplits += cb.DataSplits - ca.DataSplits
		tc.IndexSplits += cb.IndexSplits - ca.IndexSplits
		tc.Promotions += cb.Promotions - ca.Promotions
		tc.RangeTasks += cb.RangeTasks - ca.RangeTasks
		tc.RangeBatchPages += cb.RangeBatchPages - ca.RangeBatchPages
		tc.RangeFullPages += cb.RangeFullPages - ca.RangeFullPages
		guardP99 = max(guardP99, sb.Tree.GuardSet.P99)
		if sa.Store != nil && sb.Store != nil {
			nodeReads += float64(sb.Store.NodeReads - sa.Store.NodeReads)
			hits += float64(sb.Store.CacheHits - sa.Store.CacheHits)
			misses += float64(sb.Store.CacheMisses - sa.Store.CacheMisses)
			slotReads += float64(sb.Store.SlotReads - sa.Store.SlotReads)
			evictions += float64(sb.Store.Evictions - sa.Store.Evictions)
		}
		if sa.MVCC != nil && sb.MVCC != nil {
			captures += float64(sb.MVCC.Captures - sa.MVCC.Captures)
		}
		if sa.WAL != nil && sb.WAL != nil {
			appendD.add(hd(sa.WAL.AppendNs, sb.WAL.AppendNs))
			fsyncD.add(hd(sa.WAL.FsyncNs, sb.WAL.FsyncNs))
			waitD.add(hd(sa.WAL.GroupWaitNs, sb.WAL.GroupWaitNs))
			batchD.add(hd(sa.WAL.GroupBatch, sb.WAL.GroupBatch))
		}
	}
	storeRead := b.StoreRead.sub(a.StoreRead)
	storeOther := b.StoreOther.sub(a.StoreOther)
	storeNs := float64(storeRead.SumNs + storeOther.SumNs)
	var heightSum float64
	for _, h := range b.Heights {
		heightSum += float64(h)
	}
	na := float64(tc.NodeAccesses)
	r.add("bvtree.engine_us", ratio(engineNs, all)/1e3, "us", int(all))
	r.add("bvtree.self_us", ratio(engineNs-storeNs-waitD.sum, all)/1e3, "us", int(all))
	r.add("bvtree.nodes_per_op", ratio(na, all), "count", int(all))
	r.add("bvtree.node_cache_hit_ratio", 1-ratio(nodeReads, na), "ratio", int(na))
	r.add("bvtree.height", ratio(heightSum, float64(len(b.Heights))), "count", len(b.Heights))
	r.add("bvtree.guard_set_p99", guardP99, "count", len(b.Shards))
	r.add("bvtree.splits_per_kinsert", 1000*ratio(float64(tc.DataSplits+tc.IndexSplits), inserts), "count", int(inserts))
	r.add("bvtree.promotions_per_kinsert", 1000*ratio(float64(tc.Promotions), inserts), "count", int(inserts))
	r.add("bvtree.range_tasks_per_query", ratio(float64(tc.RangeTasks), queries), "count", int(queries))
	r.add("bvtree.range_batch_pages_per_query", ratio(float64(tc.RangeBatchPages), queries), "count", int(queries))
	r.add("bvtree.range_full_pages_per_query", ratio(float64(tc.RangeFullPages), queries), "count", int(queries))
	r.add("bvtree.mvcc_captures_per_insert", ratio(captures, inserts), "count", int(inserts))

	// storage: buffer pool and slot I/O.
	r.add("storage.read_us", ratio(float64(storeRead.SumNs), float64(b.StoreNodes-a.StoreNodes))/1e3, "us", int(b.StoreNodes-a.StoreNodes))
	r.add("storage.reads_per_op", ratio(float64(b.StoreNodes-a.StoreNodes), all), "count", int(all))
	r.add("storage.pool_hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))
	r.add("storage.slot_reads_per_op", ratio(slotReads, all), "count", int(all))
	r.add("storage.evictions_per_op", ratio(evictions, all), "count", int(all))

	// wal: append and group fsync.
	r.add("wal.append_us", appendD.meanUS(), "us", int(appendD.n))
	r.add("wal.fsync_us", fsyncD.meanUS(), "us", int(fsyncD.n))
	r.add("wal.group_wait_us", waitD.meanUS(), "us", int(waitD.n))
	r.add("wal.records_per_sync", batchD.mean(), "count", int(batchD.n))
	r.add("wal.bytes_per_insert", ratio(float64(b.LogBytes-a.LogBytes), inserts), "B", int(inserts))

	// vfs: the device under store and WAL.
	fsync := b.FSSync.sub(a.FSSync)
	r.add("vfs.write_bytes_per_user_byte", ratio(float64(b.FSWriteB-a.FSWriteB), inserts*userBytes), "ratio", int(inserts))
	r.add("vfs.fsyncs_per_insert", ratio(float64(fsync.Calls), inserts), "count", int(inserts))
	r.add("vfs.fsync_us", ratio(float64(fsync.SumNs), float64(fsync.Calls))/1e3, "us", int(fsync.Calls))
	r.add("vfs.reads_per_op", ratio(float64(b.FSReads-a.FSReads), all), "count", int(all))

	// server: the process as a whole.
	r.add("server.alloc_bytes_per_op", ratio(float64(b.AllocBytes-a.AllocBytes), all), "B", int(all))

	// Tracing overhead: traced against untraced throughput of the same
	// seed. The traced server is a separate process like bvserver, so
	// the ratio prices the wrappers and read-outs, not a process boundary.
	traced := float64(rec.reads()) / cfg.measure.Seconds()
	r.add("trace.ops_per_s", traced, "1/s", rec.reads())
	r.add("trace.throughput_ratio", ratio(traced, float64(untraced.reads())/cfg.measure.Seconds()), "ratio", rec.reads())
}

// engineWallUS is the engine time one request of class c waits for.
// Point ops reach exactly one shard, so it is the mean call time; the
// scatter-gather classes run their shard calls in parallel, so it is
// the time at least one call of the class was running (their requests
// come from one connection, so they never overlap each other).
func engineWallUS(c opClass, e busySnap, requests float64) float64 {
	if c == clsInsert || c == clsLookup {
		return ratio(float64(e.SumNs), requests) / 1e3
	}
	return ratio(float64(e.UnionNs), requests) / 1e3
}

func (b busySnap) sub(a busySnap) busySnap {
	return busySnap{Calls: b.Calls - a.Calls, SumNs: b.SumNs - a.SumNs, UnionNs: b.UnionNs - a.UnionNs}
}
