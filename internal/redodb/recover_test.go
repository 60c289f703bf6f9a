package redodb

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/pmem"
	"repro/internal/ptm"
)

func recKey(i int) []byte { return []byte(fmt.Sprintf("rec-key-%05d", i)) }
func recVal(i int) []byte { return []byte(fmt.Sprintf("rec-val-%05d-%040d", i, i)) }

// populate fills pool with keys 0..n-1 from two concurrent writers, so both
// writers' arenas fill spans and every bucket-array doubling frees the old
// array (one-block spans up to 512 buckets, large blocks beyond).
func populate(pool *pmem.Pool, n int) *DB {
	db := Open(pool, Options{Threads: 2})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.Session(w)
			for i := w; i < n; i += 2 {
				s.Put(recKey(i), recVal(i))
			}
		}(w)
	}
	wg.Wait()
	return db
}

// verifyAll checks every key and the allocator audit.
func verifyAll(t *testing.T, db *DB, n int) {
	t.Helper()
	s := db.Session(0)
	for i := 0; i < n; i++ {
		if v, ok := s.Get(recKey(i)); !ok || string(v) != string(recVal(i)) {
			t.Fatalf("key %d: got %q,%v", i, v, ok)
		}
	}
	if err := db.AllocReconcile(); err != nil {
		t.Fatalf("AllocReconcile: %v", err)
	}
}

// TestNullRecoveryCounts pins null recovery as counts: reopening a populated
// pool and reading runs no update transaction, so it makes no replica copy
// and writes nothing to the data regions (the header publish is the one
// pmem write), and the first write afterwards rebuilds exactly one replica.
func TestNullRecoveryCounts(t *testing.T) {
	const n = 5000
	pool := pmem.New(pmem.Config{Mode: pmem.Direct, RegionWords: 1 << 20, Regions: 3})
	populate(pool, n)

	pool.ResetStats()
	db := Open(pool, Options{Threads: 2})
	if v, ok := db.Session(0).Get(recKey(7)); !ok || string(v) != string(recVal(7)) {
		t.Fatalf("Get after reopen: %q,%v", v, ok)
	}
	if c := db.Engine().Copies(); c != 0 {
		t.Fatalf("clean Open+Get made %d replica copies, want 0", c)
	}
	if got, want := pool.Stats(), (pmem.StatsSnapshot{PWBs: 1, PSyncs: 1}); got != want {
		t.Fatalf("clean Open+Get pmem work = %+v, want only the header publish %+v", got, want)
	}
	if db.auditHeap() {
		t.Fatal("crash-free heap: the audit wants recovery stores")
	}

	s := db.Session(1)
	s.Put(recKey(n), recVal(n))
	if c := db.Engine().Copies(); c != 1 {
		t.Fatalf("first Put after reopen made %d replica copies, want 1", c)
	}
	s.Put(recKey(n+1), recVal(n+1))
	if c := db.Engine().Copies(); c != 1 {
		t.Fatalf("second Put after reopen: %d replica copies in total, want 1", c)
	}
	verifyAll(t, db, n+2)
}

// strand commits a block nothing references — the state a crash between
// allocation and publication leaves — and returns the heap's footprint
// before it.
func strand(t *testing.T, db *DB) uint64 {
	t.Helper()
	before := db.NVMUsedBytes()
	db.Engine().Update(0, func(m ptm.Mem) uint64 {
		if m.Alloc(10) == 0 {
			panic("alloc failed")
		}
		return 0
	})
	if db.AllocReconcile() == nil {
		t.Fatal("stranded block not reported as a leak")
	}
	if !db.auditHeap() {
		t.Fatal("audit of a heap with a stranded block wants no stores")
	}
	return before
}

// TestStrandedBlockEscalates: when the read-only audit would store
// something, Open escalates to the logged reachability pass — one update
// transaction, hence one replica copy — which reclaims the block.
func TestStrandedBlockEscalates(t *testing.T) {
	const n = 2000
	pool := pmem.New(pmem.Config{Mode: pmem.Direct, RegionWords: 1 << 19, Regions: 3})
	want := strand(t, populate(pool, n))

	db := Open(pool, Options{Threads: 2})
	if c := db.Engine().Copies(); c != 1 {
		t.Fatalf("escalated Open made %d replica copies, want 1", c)
	}
	if got := db.NVMUsedBytes(); got != want {
		t.Fatalf("heap after recovery = %d bytes, want %d (stranded block reclaimed)", got, want)
	}
	if db.auditHeap() {
		t.Fatal("recovered heap: the audit still wants recovery stores")
	}
	verifyAll(t, db, n)
	if c := Open(pool, Options{Threads: 2}).Engine().Copies(); c != 0 {
		t.Fatalf("reopen after the escalated recovery made %d copies, want 0", c)
	}
}

// TestEscalatedRecoveryNestedCrash sweeps power failures across Open's
// escalated reachability pass: whichever instruction the second crash
// lands on, the next Open recovers every key and reclaims the block.
func TestEscalatedRecoveryNestedCrash(t *testing.T) {
	const n = 200
	base := pmem.New(pmem.Config{Mode: pmem.Strict, RegionWords: 1 << 15, Regions: 3})
	want := strand(t, populate(base, n))
	base.Crash(pmem.CrashConservative, nil)

	points := 0
	for fail := int64(1); ; fail++ {
		pool := base.Clone()
		crashed := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if r != pmem.ErrSimulatedPowerFailure {
						panic(r)
					}
					crashed = true
				}
				pool.InjectFailure(-1)
			}()
			pool.InjectFailure(fail)
			Open(pool, Options{Threads: 2})
		}()
		if !crashed {
			break
		}
		points++
		pool.Crash(pmem.CrashConservative, nil)
		db := Open(pool, Options{Threads: 2})
		if got := db.NVMUsedBytes(); got != want {
			t.Fatalf("fail=%d: heap = %d bytes, want %d", fail, got, want)
		}
		verifyAll(t, db, n)
	}
	// The first three points are the engine's header publish; the rest
	// fall inside the escalated update.
	if points <= 3 {
		t.Fatalf("only %d failure points: none inside the escalated recovery", points)
	}
}

// BenchmarkReopen times reopening a 60,000-key pool (the perfbench fill
// size) plus its first operation. With null recovery a first Get costs
// only the open; a first Put also pays the one whole-heap replica copy the
// reopened engine owes its first write. The Puts insert fresh keys: an
// overwrite frees a block, and a span it drains would make the next open
// escalate to a logged recovery.
func BenchmarkReopen(b *testing.B) {
	const n = 60_000
	pool := pmem.New(pmem.Config{Mode: pmem.Direct, RegionWords: 1 << 21, Regions: 3, Latency: pmem.DefaultOptane})
	populate(pool, n)
	next := n
	for _, first := range []string{"get", "put"} {
		b.Run("first="+first, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := Open(pool, Options{Threads: 2}).Session(0)
				if first == "put" {
					s.Put(recKey(next), recVal(next))
					next++
				} else if _, ok := s.Get(recKey(0)); !ok {
					b.Fatal("key lost")
				}
			}
		})
	}
}
