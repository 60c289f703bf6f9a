package redodb

import (
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/ptm"
)

// Detectable operations (exactly-once semantics). Each method couples the
// operation with a receipt in the request-dedup table (internal/detect)
// INSIDE one durable transaction: the engine's redo-log commit is the single
// atomic commit point, so a crash persists both the operation and its
// receipt or neither. A retry of a committed request finds the receipt and
// is skipped — the operation's effect is applied exactly once no matter how
// many times a crashing or timing-out caller re-issues it — and WasApplied
// answers "did request (client, seq) commit?" after any crash.
//
// Contract: client ids are nonzero and each is driven by one caller at a
// time; seqs are nonzero and strictly increasing per client (retries re-use
// the seq of the request they retry). Re-using a seq for a *different*
// operation is detected via the receipt's result digest and panics.

// Operation tags folded into receipt digests.
const (
	opPut uint64 = iota + 1
	opDelete
	opBatch
)

// Detectable-update closure results.
const (
	detDup      uint64 = 0 // receipt found, operation skipped
	detApplied  uint64 = 1 // operation executed and receipted now
	detMismatch uint64 = 2 // receipt found but for a different operation
)

// finishDetectable translates a detectable-update result into the applied
// flag, emits the trace annotation, and rejects seq re-use.
func (s *Session) finishDetectable(res, client, seq uint64) bool {
	switch res {
	case detApplied:
		s.db.pool.TraceEvent(obs.KindReceipt, s.tid, -1, client, 0, seq)
		return true
	case detDup:
		s.db.pool.TraceEvent(obs.KindDedupHit, s.tid, -1, client, 0, seq)
		return false
	default:
		panic("redodb: request seq re-used for a different operation (client bug)")
	}
}

// checkReceipt implements the dedup probe inside a detectable transaction:
// detDup/detMismatch when a receipt exists, detApplied when the caller
// should execute the operation and record.
func checkReceipt(m ptm.Mem, dt detect.Table, client, seq, digest uint64) uint64 {
	d, applied := dt.Lookup(m, client, seq)
	if !applied {
		return detApplied
	}
	if d != 0 && d != digest {
		return detMismatch
	}
	return detDup
}

// PutDetectable stores (key, value) exactly once for request (client, seq).
// It reports whether this call applied the operation (false: a receipt from
// an earlier attempt was found and the store was skipped).
func (s *Session) PutDetectable(client, seq uint64, key, value []byte) bool {
	kv := make([]byte, len(key)+len(value))
	copy(kv, key)
	copy(kv[len(key):], value)
	k, v := kv[:len(key):len(key)], kv[len(key):]
	root := s.db.root
	dt := s.db.detect
	digest := detect.Digest(opPut, key, 0)
	res := s.db.eng.Update(s.tid, func(m ptm.Mem) uint64 {
		if r := checkReceipt(m, dt, client, seq, digest); r != detApplied {
			return r
		}
		putLocked(m, root, k, v)
		dt.Record(m, client, seq, digest)
		return detApplied
	})
	return s.finishDetectable(res, client, seq)
}

// DeleteDetectable removes key exactly once for request (client, seq),
// reporting whether this call applied the operation.
func (s *Session) DeleteDetectable(client, seq uint64, key []byte) bool {
	k := append([]byte(nil), key...)
	root := s.db.root
	dt := s.db.detect
	digest := detect.Digest(opDelete, key, 0)
	res := s.db.eng.Update(s.tid, func(m ptm.Mem) uint64 {
		if r := checkReceipt(m, dt, client, seq, digest); r != detApplied {
			return r
		}
		deleteLocked(m, root, k)
		dt.Record(m, client, seq, digest)
		return detApplied
	})
	return s.finishDetectable(res, client, seq)
}

// WriteDetectable applies ops exactly once for request (client, seq): the
// whole batch and its receipt commit in one durable transaction, together
// with a Write-style tag when tagSlot >= 0. The sharded front-end's
// coordinator tags the receipt's home shard, so a roll-forward that replays
// the sub-batch (guarded by the tag) re-records the receipt atomically with
// it. digest must be the BatchDigest of the FULL cross-shard batch, not the
// sub-batch. Ownership of ops passes to the call, as in Write.
func (s *Session) WriteDetectable(ops []Op, tagSlot int, tag, client, seq, digest uint64) bool {
	root := s.db.root
	dt := s.db.detect
	tagAddr := tagAddrOf(tagSlot)
	res := s.db.eng.Update(s.tid, func(m ptm.Mem) uint64 {
		r := checkReceipt(m, dt, client, seq, digest)
		if r == detApplied {
			applyOps(m, root, ops)
			dt.Record(m, client, seq, digest)
		}
		if r != detMismatch && tagAddr != 0 {
			// The tag advances even on a dedup hit: a roll-forward retry
			// of an already-receipted sub-batch must still mark the shard
			// applied, or recovery would replay it forever.
			m.Store(tagAddr, tag)
		}
		return r
	})
	return s.finishDetectable(res, client, seq)
}

// WasApplied reports whether request (client, seq) committed: true iff a
// detectable operation with that identity has a durable receipt (or was
// acked). This is the recovery question — after a crash or timeout the
// caller probes WasApplied before retrying.
func (s *Session) WasApplied(client, seq uint64) bool {
	dt := s.db.detect
	return s.db.eng.Read(s.tid, func(m ptm.Mem) uint64 {
		if dt.Applied(m, client, seq) {
			return 1
		}
		return 0
	}) == 1
}

// AckApplied advances the client's acked watermark: the caller promises it
// has consumed the results of every seq <= upto, letting the dedup table
// reclaim their receipts. One durable transaction; acking backwards is a
// no-op. WasApplied stays true for acked seqs.
func (s *Session) AckApplied(client, upto uint64) {
	dt := s.db.detect
	s.db.eng.Update(s.tid, func(m ptm.Mem) uint64 {
		dt.Ack(m, client, upto)
		return 0
	})
}

// DetectStats reports the client's exactly-once witness: total receipts ever
// recorded (applied operations), the highest receipted seq, and the acked
// watermark. Three independent durable-linearizable reads (a closure may be
// re-executed by helpers, so it cannot write through captured variables; each
// read returns one word instead).
func (s *Session) DetectStats(client uint64) (receipts, maxSeq, acked uint64) {
	dt := s.db.detect
	read := func(pick int) uint64 {
		return s.db.eng.Read(s.tid, func(m ptm.Mem) uint64 {
			r, mx, a := dt.Stats(m, client)
			switch pick {
			case 0:
				return r
			case 1:
				return mx
			default:
				return a
			}
		})
	}
	return read(0), read(1), read(2)
}

// BatchDigest fingerprints a batch's operations for its receipt: op kinds,
// keys and values folded in order, so a retry presenting different contents
// under the same (client, seq) is detectable.
func BatchDigest(ops []Op) uint64 {
	h := detect.Digest(opBatch, nil, uint64(len(ops)))
	for _, op := range ops {
		tag := opPut
		if op.Del {
			tag = opDelete
		}
		h ^= detect.Digest(tag, op.Key, detect.Digest(0, op.Val, h))
		h *= 1099511628211
	}
	if h == 0 {
		h = 1
	}
	return h
}
