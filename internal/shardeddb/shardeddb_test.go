package shardeddb

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/pmem"
	"repro/internal/redodb"
)

func openTest(t *testing.T, shards int) (*DB, *pmem.Group) {
	t.Helper()
	g := NewGroup(GroupConfig{Shards: shards, Threads: 1, Mode: pmem.Strict})
	return Open(g, Options{Threads: 1}), g
}

func TestPutGetDeleteAcrossShards(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		db, _ := openTest(t, shards)
		s := db.Session(0)
		const n = 200
		for i := 0; i < n; i++ {
			s.Put([]byte(fmt.Sprintf("key%04d", i)), []byte(fmt.Sprintf("val%d", i)))
		}
		if got := s.Len(); got != n {
			t.Fatalf("shards=%d: Len=%d want %d", shards, got, n)
		}
		for i := 0; i < n; i++ {
			k := []byte(fmt.Sprintf("key%04d", i))
			v, ok := s.Get(k)
			if !ok || !bytes.Equal(v, []byte(fmt.Sprintf("val%d", i))) {
				t.Fatalf("shards=%d: Get(%s) = %q,%v", shards, k, v, ok)
			}
			if !s.Has(k) {
				t.Fatalf("shards=%d: Has(%s) false", shards, k)
			}
		}
		// Overwrite and delete a subset.
		for i := 0; i < n; i += 3 {
			s.Put([]byte(fmt.Sprintf("key%04d", i)), []byte("rewritten"))
		}
		for i := 1; i < n; i += 3 {
			if !s.Delete([]byte(fmt.Sprintf("key%04d", i))) {
				t.Fatalf("shards=%d: Delete(key%04d) reported absent", shards, i)
			}
		}
		for i := 0; i < n; i++ {
			k := []byte(fmt.Sprintf("key%04d", i))
			v, ok := s.Get(k)
			switch i % 3 {
			case 0:
				if !ok || string(v) != "rewritten" {
					t.Fatalf("shards=%d: overwrite lost at %s", shards, k)
				}
			case 1:
				if ok {
					t.Fatalf("shards=%d: deleted key %s still present", shards, k)
				}
			case 2:
				if !ok || !bytes.Equal(v, []byte(fmt.Sprintf("val%d", i))) {
					t.Fatalf("shards=%d: untouched key %s damaged: %q,%v", shards, k, v, ok)
				}
			}
		}
	}
}

func TestCrossShardBatchAndIterator(t *testing.T) {
	for _, shards := range []int{1, 8} {
		db, _ := openTest(t, shards)
		s := db.Session(0)
		b := &WriteBatch{}
		for i := 0; i < 40; i++ {
			b.Put([]byte(fmt.Sprintf("batch%03d", i)), []byte{byte(i)})
		}
		b.Delete([]byte("batch007"))
		s.Write(b)
		if got := s.Len(); got != 39 {
			t.Fatalf("shards=%d: Len=%d want 39", shards, got)
		}
		it := s.NewIterator()
		// The iterator is a snapshot: later writes do not disturb it.
		s.Put([]byte("batch999"), []byte("late"))
		s.Put([]byte("batch000"), []byte("late"))
		s.Delete([]byte("batch001"))
		if it.Len() != 39 {
			t.Fatalf("shards=%d: iterator sees %d pairs, want 39", shards, it.Len())
		}
		var prev []byte
		for it.Next() {
			if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
				t.Fatalf("shards=%d: iterator keys out of order: %q then %q", shards, prev, it.Key())
			}
			if string(it.Key()) == "batch000" && it.Value()[0] != 0 {
				t.Fatalf("shards=%d: snapshot saw a later overwrite", shards)
			}
			prev = append(prev[:0], it.Key()...)
		}
		if it.Valid() {
			t.Fatalf("shards=%d: iterator valid after exhaustion", shards)
		}
		if !it.Seek([]byte("batch020")) || string(it.Key()) != "batch020" {
			t.Fatalf("shards=%d: Seek(batch020) did not land on batch020", shards)
		}
		if it.Seek([]byte("zzz")) {
			t.Fatalf("shards=%d: Seek(zzz) found a key", shards)
		}
	}
}

// A batch confined to one shard must bypass the coordinator entirely: no
// intent is published, so the coordinator pool sees zero persistence work.
func TestSingleShardBatchBypassesCoordinator(t *testing.T) {
	db, g := openTest(t, 4)
	s := db.Session(0)
	shard := s.shardOf([]byte("anchor"))
	b := &WriteBatch{}
	b.Put([]byte("anchor"), []byte("v"))
	before := g.Pool(0).Stats()
	s.Write(b)
	after := g.Pool(0).Stats()
	if d := after.Sub(before); d.PWBs != 0 || d.Fences() != 0 {
		t.Fatalf("single-shard batch touched the coordinator: %v", d)
	}
	if v, ok := s.Get([]byte("anchor")); !ok || string(v) != "v" {
		t.Fatalf("single-shard batch not applied (shard %d)", shard)
	}
	// A genuinely cross-shard batch does use the coordinator.
	wide := &WriteBatch{}
	for i := 0; wide.Len() < 8; i++ {
		wide.Put([]byte(fmt.Sprintf("wide%d", i)), []byte("w"))
	}
	s.Write(wide)
	if d := g.Pool(0).Stats().Sub(after); d.PWBs == 0 {
		t.Fatal("cross-shard batch never published an intent")
	}
}

// Acceptance criterion: sharding must not tax the single-key hot path.
// pwbs/tx for a single-key Put through the sharded front-end must stay
// within 10% of the per-shard engine driven directly (same overwrite
// workload, so no resize noise on either side), and one shard must cost
// exactly what the engine costs: pwbs and fences per tx equal.
func TestPutPWBParityWithUnsharded(t *testing.T) {
	const keys = 128
	const rounds = 8

	measure := func(put func(k, v []byte), stats func() pmem.StatsSnapshot) (pwbs, fences float64) {
		fill := func(val byte) {
			for i := 0; i < keys; i++ {
				put([]byte(fmt.Sprintf("parity%04d", i)), bytes.Repeat([]byte{val}, 24))
			}
		}
		fill(0) // populate
		fill(1) // warm the overwrite path
		before := stats()
		for r := 0; r < rounds; r++ {
			fill(byte(2 + r))
		}
		delta := stats().Sub(before)
		return float64(delta.PWBs) / float64(keys*rounds), float64(delta.Fences()) / float64(keys*rounds)
	}

	plainPool := pmem.New(pmem.Config{Mode: pmem.Strict, RegionWords: 1 << 16, Regions: 2})
	plain := redodb.Open(plainPool, redodb.Options{Threads: 1}).Session(0)
	plainPWBs, plainFences := measure(plain.Put, plainPool.Stats)

	for _, shards := range []int{1, 8} {
		g := NewGroup(GroupConfig{Shards: shards, Threads: 1, ShardWords: 1 << 16, Mode: pmem.Strict})
		sharded := Open(g, Options{Threads: 1}).Session(0)
		shardedPWBs, shardedFences := measure(sharded.Put, g.Stats)

		ratio := shardedPWBs / plainPWBs
		t.Logf("pwbs/tx: unsharded=%.3f sharded(%d)=%.3f ratio=%.3f; fences/tx: %.3f vs %.3f",
			plainPWBs, shards, shardedPWBs, ratio, plainFences, shardedFences)
		if shards == 1 && (shardedPWBs != plainPWBs || shardedFences != plainFences) {
			t.Fatalf("one shard costs %.3f pwbs + %.3f fences per tx, the engine %.3f + %.3f",
				shardedPWBs, shardedFences, plainPWBs, plainFences)
		}
		if ratio > 1.10 || ratio < 0.90 {
			t.Fatalf("sharded(%d) Put pwbs/tx %.2f not within 10%% of unsharded %.2f", shards, shardedPWBs, plainPWBs)
		}
	}
}
