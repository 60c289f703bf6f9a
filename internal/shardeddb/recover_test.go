package shardeddb

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/pmem"
	"repro/internal/ptm"
)

func nrKey(i int) []byte { return []byte(fmt.Sprintf("null-rec-%05d", i)) }
func nrVal(i int) []byte { return []byte(fmt.Sprintf("value-%05d-%032d", i, i)) }

// copies sums the replica copies every shard engine has made.
func (db *DB) copies() uint64 {
	var n uint64
	for _, sh := range db.shards {
		n += sh.Engine().Copies()
	}
	return n
}

func verifyShards(t *testing.T, db *DB, n int) {
	t.Helper()
	s := db.Session(0)
	for i := 0; i < n; i++ {
		if v, ok := s.Get(nrKey(i)); !ok || string(v) != string(nrVal(i)) {
			t.Fatalf("key %d: got %q,%v", i, v, ok)
		}
	}
	if err := db.AllocReconcile(); err != nil {
		t.Fatalf("AllocReconcile: %v", err)
	}
}

// TestNullRecoveryCountsSharded pins null recovery across an 8-shard store:
// a clean reopen plus a read makes no replica copy on any shard and no data
// write anywhere — each shard pool's header publish is the only pmem work —
// and the first Put afterwards rebuilds exactly one replica, on its shard.
// A shard holding a stranded block still escalates, alone.
func TestNullRecoveryCountsSharded(t *testing.T) {
	const shards, n = 8, 4000
	g := NewGroup(GroupConfig{Shards: shards, Threads: 2, ShardWords: 1 << 17, Mode: pmem.Direct})
	db := Open(g, Options{Threads: 2})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.Session(w)
			for i := w; i < n; i += 2 {
				s.Put(nrKey(i), nrVal(i))
			}
		}(w)
	}
	wg.Wait()

	g.ResetStats()
	db = Open(g, Options{Threads: 2})
	if v, ok := db.Session(0).Get(nrKey(3)); !ok || string(v) != string(nrVal(3)) {
		t.Fatalf("Get after reopen: %q,%v", v, ok)
	}
	if c := db.copies(); c != 0 {
		t.Fatalf("clean Open+Get made %d replica copies, want 0", c)
	}
	if got := g.Pool(0).Stats(); got != (pmem.StatsSnapshot{}) {
		t.Fatalf("clean Open+Get touched the coordinator pool: %+v", got)
	}
	for i := 1; i <= shards; i++ {
		if got, want := g.Pool(i).Stats(), (pmem.StatsSnapshot{PWBs: 1, PSyncs: 1}); got != want {
			t.Fatalf("shard pool %d: clean Open+Get pmem work = %+v, want only the header publish %+v", i, got, want)
		}
	}

	db.Session(1).Put(nrKey(n), nrVal(n))
	if c := db.copies(); c != 1 {
		t.Fatalf("first Put after reopen made %d replica copies, want 1", c)
	}
	verifyShards(t, db, n+1)

	// Strand a block on one shard: only that shard escalates.
	db.shards[5].Engine().Update(0, func(m ptm.Mem) uint64 {
		if m.Alloc(10) == 0 {
			panic("alloc failed")
		}
		return 0
	})
	if db.AllocReconcile() == nil {
		t.Fatal("stranded block not reported as a leak")
	}
	db = Open(g, Options{Threads: 2})
	for i, sh := range db.shards {
		want := uint64(0)
		if i == 5 {
			want = 1
		}
		if c := sh.Engine().Copies(); c != want {
			t.Fatalf("shard %d: Open made %d replica copies, want %d", i, c, want)
		}
	}
	verifyShards(t, db, n+1)
}
