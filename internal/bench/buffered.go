package bench

import (
	"runtime"

	"repro/internal/pmem"
	"repro/internal/shardeddb"
)

// Buffered-durability sweep: the tracked benchmark behind BENCH_pr8.json.
// The "sync" baseline pays the full synchronous price per Put — a combining
// round, the dirty-line flush, a fence, and the header publish, every
// operation. The "buffered" cells run db_bench-style group commit at batch
// depth N: each worker accumulates N puts in a WriteBatch, applies it as one
// transaction into the in-flight epoch, and Syncs — sealing the epoch with
// ONE fence for the whole group. Depth therefore amortizes both the
// per-transaction software cost (one combining round per N puts) and the
// persistence cost (fences/put falls as ~2/N); the trajectory pins >= 5x at
// depth 64 with a bounded p99 (the batch-closing put absorbs the seal, so
// the tail is the group-commit latency, not a lost write).

// BufferedEntries measures the fillrandom baseline plus one buffered cell
// per batch depth on a one-shard RedoDB (the paper's unsharded store).
func BufferedEntries(cfg DBConfig, threads int, depths []int) []BenchEntry {
	out := []BenchEntry{bufferedCell(cfg, threads, 0)}
	for _, d := range depths {
		// Each cell leaves a dead ~50 MB pool behind; reclaim it before the
		// next measurement so GC pauses don't land inside the timed window.
		runtime.GC()
		out = append(out, bufferedCell(cfg, threads, d))
	}
	return out
}

// bufferedCell measures one fillrandom cell: depth 0 is the synchronous
// baseline, depth >= 1 runs buffered with a Sync every depth ops per worker.
func bufferedCell(cfg DBConfig, threads, depth int) BenchEntry {
	buffered := depth > 0
	g := shardeddb.NewGroup(shardeddb.GroupConfig{
		Shards: 1, Threads: threads, ShardWords: cfg.Words,
		Mode: pmem.Direct, Latency: cfg.Lat, Buffered: buffered,
	})
	db := shardeddb.Open(g, shardeddb.Options{
		Threads: threads, Buffered: buffered, PersistEvery: -1,
	})
	sessions := make([]*shardeddb.Session, threads)
	for i := range sessions {
		sessions[i] = db.Session(i)
	}
	keys := make([][]byte, cfg.Keys)
	for i := range keys {
		keys[i] = dbKey(uint64(i))
	}
	rngs := makeRNGs(threads)
	// Warm to steady state: every key present so the measured window sees
	// overwrites, and (buffered) the batch/seal path exercised at the
	// measured depth so the log and dirty-list scratch is grown before
	// measurement.
	if buffered {
		wb := &shardeddb.WriteBatch{}
		for i := uint64(0); i < cfg.Keys; i++ {
			wb.Put(keys[i], dbValue)
			if wb.Len() >= depth {
				sessions[0].Write(wb)
				sessions[0].Sync()
				wb.Clear()
			}
		}
		if wb.Len() > 0 {
			sessions[0].Write(wb)
			sessions[0].Sync()
		}
	} else {
		for i := uint64(0); i < cfg.Keys; i++ {
			sessions[0].Put(keys[i], dbValue)
		}
	}
	g.ResetStats()
	var res Result
	if buffered {
		batches := make([]*shardeddb.WriteBatch, threads)
		for i := range batches {
			batches[i] = &shardeddb.WriteBatch{}
		}
		res = RunThroughputLat(g, threads, cfg.Dur, func(tid, i int) {
			b := batches[tid]
			b.Put(keys[rngs[tid].intn(cfg.Keys)], dbValue)
			if b.Len() >= depth {
				sessions[tid].Write(b)
				sessions[tid].Sync()
				b.Clear()
			}
		})
	} else {
		res = RunThroughputLat(g, threads, cfg.Dur, func(tid, i int) {
			sessions[tid].Put(keys[rngs[tid].intn(cfg.Keys)], dbValue)
		})
	}
	path := "sync"
	if buffered {
		path = "buffered"
	}
	return BenchEntry{
		Workload:     "fillrandom",
		Engine:       "RedoDB",
		Shards:       1,
		Threads:      threads,
		Path:         path,
		Depth:        depth,
		OpsPerSec:    res.OpsPerSec(),
		PWBsPerTx:    res.PWBsPerOp(),
		PFencesPerTx: res.FencesPerOp(),
		P50Ns:        res.Lat.P50Ns,
		P99Ns:        res.Lat.P99Ns,
	}
}
