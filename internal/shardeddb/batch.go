package shardeddb

import "repro/internal/redodb"

// WriteBatch collects Put/Delete operations for atomic application across
// shards. Keys and values are snapshotted into a single grow-only arena the
// batch owns, so assembling a batch from a connection's frame-decode scratch
// buffers (which the next read overwrites) is safe, and a reused batch costs
// amortized zero allocations per op instead of two.
//
// Ownership contract (the per-connection reuse audit): Write,
// WriteDurable, and WriteDetectable must not retain any reference into the
// batch — arena bytes included — past their return. They hold that contract
// by copying at every boundary that outlives the call: split() copies each
// op's bytes once into a fresh buffer that the per-shard sub-batches own
// (helpers may re-execute a shard's transaction after Write returns), and
// the coordinator intent serializes the ops into its payload buffer. Clear
// may therefore recycle the arena immediately; the contract is pinned by
// TestWriteBatchArenaReuse and the pipelined-connection race smoke in
// internal/server. A batch still must not be MUTATED concurrently with a
// Write that was handed the same batch from another goroutine.
type WriteBatch struct {
	ops []redodb.Op
	buf []byte // arena backing every queued key and value
}

// own snapshots p into the batch arena. The full slice expression caps the
// returned subslice so a later arena append can never grow into it, and
// earlier subslices stay valid across arena growth because the old backing
// array is immutable once abandoned.
func (b *WriteBatch) own(p []byte) []byte {
	n := len(b.buf)
	b.buf = append(b.buf, p...)
	return b.buf[n:len(b.buf):len(b.buf)]
}

// Put queues an insertion/overwrite.
func (b *WriteBatch) Put(key, value []byte) {
	b.ops = append(b.ops, redodb.Op{Key: b.own(key), Val: b.own(value)})
}

// Delete queues a deletion.
func (b *WriteBatch) Delete(key []byte) {
	b.ops = append(b.ops, redodb.Op{Key: b.own(key), Del: true})
}

// Len reports the number of queued operations.
func (b *WriteBatch) Len() int { return len(b.ops) }

// Clear empties the batch for reuse, recycling the arena. The op headers
// are zeroed before the truncation so the retained backing array does not
// keep dropped subslice headers alive; the arena bytes themselves may be
// overwritten by the next assembly because no Write path retains them (see
// the ownership contract above).
func (b *WriteBatch) Clear() {
	clear(b.ops)
	b.ops = b.ops[:0]
	b.buf = b.buf[:0]
}

// split partitions ops into per-shard sub-batches (nil for untouched
// shards), copying every key and value once into one buffer the sub-batches
// own. Later ops on the same key keep their order within the shard's
// sub-batch, preserving WriteBatch's last-writer-wins semantics. It also
// reports how many shards the batch touches and the last one it touched.
func (s *Session) split(ops []redodb.Op) (subs [][]redodb.Op, touched, only int) {
	size := 0
	for _, op := range ops {
		size += len(op.Key) + len(op.Val)
	}
	buf := make([]byte, 0, size)
	own := func(p []byte) []byte {
		n := len(buf)
		buf = append(buf, p...)
		return buf[n:len(buf):len(buf)]
	}
	subs = make([][]redodb.Op, len(s.sess))
	only = -1
	for _, op := range ops {
		i := s.shardOf(op.Key)
		if subs[i] == nil {
			touched++
			only = i
		}
		subs[i] = append(subs[i], redodb.Op{Key: own(op.Key), Val: own(op.Val), Del: op.Del})
	}
	return subs, touched, only
}

// Write applies the batch atomically and durably.
//
// A batch whose keys all live on one shard is a single RedoDB transaction —
// wait-free, no coordinator involvement. A cross-shard batch takes the
// coordinator path: publish a durable intent, apply the per-shard
// sub-batches (each tagged with the batch sequence number), then durably
// complete. A crash anywhere in between leaves either a completed batch or
// an open intent that Open rolls forward, so no execution ever exposes some
// shards' sub-batches without the others.
func (s *Session) Write(b *WriteBatch) {
	subs, touched, only := s.split(b.ops)
	switch touched {
	case 0:
		return
	case 1:
		s.sess[only].Write(subs[only], -1, 0)
		return
	}

	db := s.db
	db.batchMu.Lock()
	defer db.batchMu.Unlock()
	seq := db.nextSeq
	db.nextSeq++
	db.publishIntent(seq, encodeIntent(b.ops, nil))
	for i, sub := range subs {
		if sub != nil {
			s.sess[i].Write(sub, tagRoot, seq)
		}
	}
	// Buffered shards: the cross-shard Sync barrier. Every touched shard
	// must persist its sub-batch (tag included) before the intent retires —
	// otherwise a crash after completeIntent could lose some shards'
	// volatile sub-batches with nothing left to roll forward, turning an
	// atomic batch into a torn one. With the barrier, a crash loses either
	// the whole batch (intent still open → roll-forward) or nothing.
	if db.buffered {
		for i, sub := range subs {
			if sub != nil {
				db.shards[i].Persist()
			}
		}
	}
	db.completeIntent(seq)
	db.lastCommitted.Store(seq)
}
