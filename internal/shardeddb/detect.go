package shardeddb

import (
	"repro/internal/obs"
	"repro/internal/redodb"
)

// Detectable operations on the sharded front-end. Single-key operations
// inherit RedoDB's exactly-once path unchanged: the receipt lives on the
// key's shard, recorded inside the same wait-free transaction as the
// operation. Cross-shard batches anchor their receipt on the client's home
// shard (chosen by client id, so a retry probes the same place no matter
// which keys the batch touches) and carry the receipt identity in the
// coordinator intent, so a roll-forward after a crash re-records it
// atomically with the home shard's sub-batch — the batch commits exactly
// once whether it is finished by recovery, by the retry, or by both racing
// across crashes.
//
// Contract (as in redodb): client ids and seqs are nonzero, seqs strictly
// increase per client, and a retry re-issues the identical operation. A seq
// re-used for a different operation on the same shard panics via the digest
// check; re-use that changes which shard the operation routes to is
// undetectable by construction (the receipt is on the original shard) and
// remains a client bug.

// homeShard maps a client id to the shard whose dedup table anchors its
// cross-shard receipts. The remix decorrelates home shards from sequential
// client ids.
func (db *DB) homeShard(client uint64) int {
	return int((client * 0x9e3779b97f4a7c15 >> 33) % uint64(len(db.shards)))
}

// PutDetectable stores (key, value) exactly once for request (client, seq),
// reporting whether this call applied it (false: deduplicated).
func (s *Session) PutDetectable(client, seq uint64, key, value []byte) bool {
	return s.sess[s.shardOf(key)].PutDetectable(client, seq, key, value)
}

// DeleteDetectable removes key exactly once for request (client, seq),
// reporting whether this call applied it.
func (s *Session) DeleteDetectable(client, seq uint64, key []byte) bool {
	return s.sess[s.shardOf(key)].DeleteDetectable(client, seq, key)
}

// WasApplied reports whether request (client, seq) committed on any shard —
// the recovery probe a crashed or timed-out caller issues before retrying.
func (s *Session) WasApplied(client, seq uint64) bool {
	for _, sh := range s.sess {
		if sh.WasApplied(client, seq) {
			return true
		}
	}
	return false
}

// AckApplied advances the client's acked watermark on every shard, bounding
// each shard's dedup table by the client's unacked window.
func (s *Session) AckApplied(client, upto uint64) {
	for _, sh := range s.sess {
		sh.AckApplied(client, upto)
	}
}

// DetectStats sums the client's exactly-once witness across shards: total
// receipts (operations applied), the highest receipted seq, and the acked
// watermark (the same on every shard, since AckApplied broadcasts).
func (s *Session) DetectStats(client uint64) (receipts, maxSeq, acked uint64) {
	for _, sh := range s.sess {
		r, mx, a := sh.DetectStats(client)
		receipts += r
		if mx > maxSeq {
			maxSeq = mx
		}
		if a > acked {
			acked = a
		}
	}
	return receipts, maxSeq, acked
}

// WriteDetectable applies the batch atomically, durably, and exactly once
// for request (client, seq), reporting whether this call applied it.
//
// A batch confined to one shard is a single RedoDB transaction carrying both
// the sub-batch and the receipt. A cross-shard batch takes the coordinator
// path with the receipt identity embedded in the durable intent: the home
// shard's sub-batch and the receipt commit in one per-shard transaction, and
// recovery's roll-forward replays that transaction idempotently (shards
// whose tag already names the batch are skipped; a home shard that holds the
// receipt but missed the tag stores just the tag).
func (s *Session) WriteDetectable(b *WriteBatch, client, seq uint64) bool {
	// Every path that receipts a batch — first attempt, retry, roll-forward
	// — digests the same full op list, so they agree on the request's
	// identity.
	digest := redodb.BatchDigest(b.ops)
	subs, touched, only := s.split(b.ops)
	db := s.db
	home := db.homeShard(client)
	switch touched {
	case 0:
		// An empty batch still consumes the seq: record a bare receipt on
		// the home shard so WasApplied answers for it.
		return s.sess[home].WriteDetectable(nil, -1, 0, client, seq, digest)
	case 1:
		// Single-shard fast path: receipt on the touched shard, no
		// coordinator involvement. A retry splits identically, so it probes
		// the same shard.
		return s.sess[only].WriteDetectable(subs[only], -1, 0, client, seq, digest)
	}

	db.batchMu.Lock()
	defer db.batchMu.Unlock()
	if s.sess[home].WasApplied(client, seq) {
		// The receipt is durable, so the batch committed (first attempt, a
		// racing retry, or recovery's roll-forward): pure dedup hit.
		db.group.Pool(0).TraceEvent(obs.KindDedupHit, -1, -1, client, 0, seq)
		return false
	}
	bseq := db.nextSeq
	db.nextSeq++
	db.publishIntent(bseq, encodeIntent(b.ops, &intentReceipt{
		client: client, seq: seq, digest: digest, home: home,
	}))
	for i, sub := range subs {
		if i == home {
			s.sess[i].WriteDetectable(sub, tagRoot, bseq, client, seq, digest)
		} else if sub != nil {
			s.sess[i].Write(sub, tagRoot, bseq)
		}
	}
	// Buffered shards: persist every touched shard (the home shard always
	// participates — it carries the receipt) before the intent retires,
	// exactly as in Write. The receipt and its batch stay atomic across a
	// crash either way: both roll forward or both are lost with the intent.
	if db.buffered {
		for i, sub := range subs {
			if sub != nil || i == home {
				db.shards[i].Persist()
			}
		}
	}
	db.completeIntent(bseq)
	db.lastCommitted.Store(bseq)
	return true
}
