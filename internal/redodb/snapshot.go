package redodb

import (
	"bytes"
	"encoding/binary"
	"sort"

	"repro/internal/ptm"
)

// KV is one key-value pair of a snapshot.
type KV struct {
	Key, Val []byte
}

// SnapshotTagged appends a consistent, durable snapshot of the database to
// dst in ascending key order, and returns the Write tag in root slot tagSlot
// as observed by the SAME read transaction — the iterator capability the
// paper added to the hash map for LevelDB/RocksDB API compatibility. A
// multi-shard merger uses the tag to decide whether the per-shard snapshots
// it collected are mutually consistent. The snapshot is taken by a single
// read transaction (reads in RedoOpt-PTM "have their own snapshot of the
// data"), serialized through the engine's byte-result channel, so the pairs
// share no memory with the store and later writes do not disturb them.
func (s *Session) SnapshotTagged(dst []KV, tagSlot int) ([]KV, uint64) {
	root := s.db.root
	tagAddr := ptm.RootAddr(tagSlot)
	tag, blob := s.db.eng.ReadWithBytes(s.tid, func(m ptm.Mem) uint64 {
		ptm.EmitBytes(m, serializeAll(m, root))
		return m.Load(tagAddr)
	})
	return deserialize(dst, blob), tag
}

// serializeAll walks the hash map and encodes every pair, sorted by key.
// It runs inside a read transaction and is deterministic, as required of
// closures that helpers may re-execute.
func serializeAll(m ptm.Mem, root uint64) []byte {
	hdr := m.Load(root)
	buckets := m.Load(hdr + hdrBuckets)
	nb := m.Load(hdr + hdrNB)
	pairs := make([]KV, 0, m.Load(hdr+hdrCount))
	for i := uint64(0); i < nb; i++ {
		for n := m.Load(buckets + i); n != 0; n = m.Load(n + ndNext) {
			pairs = append(pairs, KV{
				Key: ptm.LoadBytes(m, m.Load(n+ndKey)),
				Val: ptm.LoadBytes(m, m.Load(n+ndVal)),
			})
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return bytes.Compare(pairs[i].Key, pairs[j].Key) < 0 })
	var size int
	for _, p := range pairs {
		size += 16 + len(p.Key) + len(p.Val)
	}
	blob := make([]byte, 0, size)
	var lenBuf [8]byte
	for _, p := range pairs {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(p.Key)))
		blob = append(blob, lenBuf[:]...)
		blob = append(blob, p.Key...)
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(p.Val)))
		blob = append(blob, lenBuf[:]...)
		blob = append(blob, p.Val...)
	}
	return blob
}

func deserialize(pairs []KV, blob []byte) []KV {
	for len(blob) >= 8 {
		kl := binary.LittleEndian.Uint64(blob)
		blob = blob[8:]
		key := blob[:kl]
		blob = blob[kl:]
		vl := binary.LittleEndian.Uint64(blob)
		blob = blob[8:]
		val := blob[:vl]
		blob = blob[vl:]
		pairs = append(pairs, KV{Key: key, Val: val})
	}
	return pairs
}
