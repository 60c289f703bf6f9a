// Package chaos is the crash-consistency checking engine behind cmd/crashcheck:
// systematic single-crash sweeps, nested-crash (crash-during-recovery) sweeps
// in the model of Ben-David et al., and a corruption sweep that flips bits in
// the spans each engine declares unreachable from committed state.
//
// Every engine is driven through the same deterministic workload — insert
// keys 0..n-1, one durable transaction each — so a checker can count the
// completed transactions at the moment of a simulated power failure and then
// assert, after recovery, that the surviving state is exactly a prefix of
// the workload containing at least every completed insert.
package chaos

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/core/cx"
	"repro/internal/core/redo"
	"repro/internal/onefile"
	"repro/internal/onll"
	"repro/internal/pmdk"
	"repro/internal/pmem"
	"repro/internal/psim"
	"repro/internal/ptm"
	"repro/internal/redodb"
	"repro/internal/rockssim"
	"repro/internal/romulus"
	"repro/internal/seqds"
	"repro/internal/shardeddb"
)

// Engines lists every sweep target: the nine PTM/PUC constructions, the
// ONLL one-line-log, the two key-value stores, and the sharded RedoDB
// front-end at each acceptance shard count (its only multi-pool engine —
// the shardeddb runners sweep the cross-shard batch coordinator's crash
// points).
func Engines() []string {
	return []string{
		"RedoOpt-PTM", "RedoTimed-PTM", "Redo-PTM",
		"CX-PTM", "CX-PUC", "OneFile", "RomulusLR", "PSim-CoW", "PMDK",
		"ONLL", "redodb", "redodb-bulkval", "redodb-legacyalloc", "rockssim",
		"shardeddb-1", "shardeddb-2", "shardeddb-8",
		"redodb-buffered-d2", "redodb-buffered-d8",
		"shardeddb-buffered-1", "shardeddb-buffered-8",
	}
}

// bulkVal renders the redodb-bulkval workload's value for key i: a
// deterministic pattern whose length varies from 1 byte to a few cache
// lines, so the sweep hits aligned and unaligned bulk records, partial
// head/tail lines and whole non-temporal lines.
func bulkVal(i int) []byte {
	n := 1 + (i*37)%240
	v := make([]byte, n)
	for j := range v {
		v[j] = byte(i + j*13)
	}
	return v
}

// shardsOf reports the shard count of a "shardeddb-K" engine name, or 0.
func shardsOf(name string) int {
	var k int
	if _, err := fmt.Sscanf(name, "shardeddb-%d", &k); err == nil && k > 0 {
		return k
	}
	return 0
}

// bufferedDepthOf reports the group-commit batch depth of a
// "redodb-buffered-dN" engine name, or 0.
func bufferedDepthOf(name string) int {
	var d int
	if _, err := fmt.Sscanf(name, "redodb-buffered-d%d", &d); err == nil && d > 0 {
		return d
	}
	return 0
}

// bufferedShardsOf reports the shard count of a "shardeddb-buffered-K"
// engine name, or 0.
func bufferedShardsOf(name string) int {
	var k int
	if _, err := fmt.Sscanf(name, "shardeddb-buffered-%d", &k); err == nil && k > 0 {
		return k
	}
	return 0
}

// bufferedSyncDepth is the Sync cadence of the buffered sharded workload.
const bufferedSyncDepth = 4

// Runner abstracts "insert key i, then verify after recovery" over the PTMs
// (via a list set) and the KV stores. Fresh constructs or recovers the
// engine over a pool group (single-pool engines use pool 0); a new Runner
// must be used for every recovery so no volatile state leaks across a
// simulated crash.
type Runner struct {
	Fresh  func(g *pmem.Group) // construct engine over the group
	Insert func(i int)         // one durable insert transaction
	Verify func(completed, n int) error
}

// NewRunner builds the deterministic workload driver for one engine.
func NewRunner(name string) (*Runner, error) {
	if depth := bufferedDepthOf(name); depth > 0 {
		// Buffered RedoDB under group commit: inserts commit into the
		// in-flight epoch and the runner seals (Persist) every depth-th
		// insert, so the sweep's crash points land before, inside and after
		// every epoch boundary. The durability contract is weaker than the
		// synchronous engines' — a crash may lose the un-synced commit-order
		// SUFFIX — so Verify asserts the buffered form: the surviving keys
		// are a contiguous prefix (never a gap), at least every key covered
		// by a completed Persist survived, and nothing from the future
		// appeared.
		var db *redodb.DB
		var s *redodb.Session
		key := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }
		return &Runner{
			Fresh: func(g *pmem.Group) {
				db = redodb.Open(g.Pool(0), redodb.Options{Threads: 1, Buffered: true})
				s = db.Session(0)
			},
			Insert: func(i int) {
				s.Put(key(i), []byte{byte(i)})
				if (i+1)%depth == 0 {
					db.Persist()
				}
			},
			Verify: func(completed, n int) error {
				m := 0
				for i := 0; i < n; i++ {
					v, ok := s.Get(key(i))
					if !ok {
						// Suffix loss only: once one key is absent, every
						// later one must be too.
						for j := i + 1; j < n; j++ {
							if s.Has(key(j)) {
								return fmt.Errorf("gap loss: key %d survived but %d did not", j, i)
							}
						}
						break
					}
					if v[0] != byte(i) {
						return fmt.Errorf("key %d recovered with wrong value %x", i, v)
					}
					m++
				}
				synced := depth * (completed / depth)
				if m < synced {
					return fmt.Errorf("sealed epoch lost: %d keys survived < %d covered by a completed Persist", m, synced)
				}
				if m > completed+1 {
					return fmt.Errorf("%d keys survived but only %d inserts ran", m, completed+1)
				}
				return db.AllocReconcile()
			},
		}, nil
	}
	if shards := bufferedShardsOf(name); shards > 0 {
		// Buffered sharded front-end: the same cross-shard batch workload as
		// "shardeddb-K", with a Sync barrier every bufferedSyncDepth batches.
		// Batches above the last completed Sync may individually survive or
		// vanish (a-keys and b-keys scatter independently, so the GLOBAL
		// insert order is not a single shard's epoch order), but every batch
		// must recover all-or-nothing and everything below the barrier must
		// survive.
		var sdb *shardeddb.DB
		var s *shardeddb.Session
		key := func(prefix byte, i int) []byte {
			return []byte(fmt.Sprintf("%c%03d", prefix, i))
		}
		return &Runner{
			Fresh: func(g *pmem.Group) {
				sdb = shardeddb.Open(g, shardeddb.Options{Threads: 1, Buffered: true, PersistEvery: -1})
				s = sdb.Session(0)
			},
			Insert: func(i int) {
				b := &shardeddb.WriteBatch{}
				b.Put(key('a', i), []byte{byte(i)})
				b.Put(key('b', i), []byte{byte(i) ^ 0xff})
				s.Write(b)
				if (i+1)%bufferedSyncDepth == 0 {
					s.Sync()
				}
			},
			Verify: func(completed, n int) error {
				synced := bufferedSyncDepth * (completed / bufferedSyncDepth)
				applied := 0
				for i := 0; i < n; i++ {
					va, oka := s.Get(key('a', i))
					vb, okb := s.Get(key('b', i))
					if oka != okb {
						return fmt.Errorf("batch %d recovered torn (a=%v b=%v)", i, oka, okb)
					}
					if !oka {
						if i < synced {
							return fmt.Errorf("batch %d lost below the Sync barrier at %d", i, synced)
						}
						continue
					}
					if va[0] != byte(i) || vb[0] != byte(i)^0xff {
						return fmt.Errorf("batch %d recovered with wrong values %x/%x", i, va, vb)
					}
					applied++
				}
				if applied > completed+1 {
					return fmt.Errorf("%d batches survived but only %d writes ran", applied, completed+1)
				}
				return sdb.AllocReconcile()
			},
		}, nil
	}
	if shards := shardsOf(name); shards > 0 {
		// The shardeddb workload inserts CROSS-SHARD batches: every insert
		// writes two keys whose prefixes scatter to different shards, so a
		// crash point inside the coordinator protocol (publish intent,
		// per-shard applies, complete) is exercised at every sweep step.
		// Verify asserts the batches survived all-or-nothing in order.
		var sdb *shardeddb.DB
		var s *shardeddb.Session
		key := func(prefix byte, i int) []byte {
			return []byte(fmt.Sprintf("%c%03d", prefix, i))
		}
		return &Runner{
			Fresh: func(g *pmem.Group) {
				sdb = shardeddb.Open(g, shardeddb.Options{Threads: 1})
				s = sdb.Session(0)
			},
			Insert: func(i int) {
				b := &shardeddb.WriteBatch{}
				b.Put(key('a', i), []byte{byte(i)})
				b.Put(key('b', i), []byte{byte(i) ^ 0xff})
				s.Write(b)
			},
			Verify: func(completed, n int) error {
				applied := 0
				for i := 0; i < n; i++ {
					va, oka := s.Get(key('a', i))
					vb, okb := s.Get(key('b', i))
					if oka != okb {
						return fmt.Errorf("batch %d recovered torn (a=%v b=%v)", i, oka, okb)
					}
					if !oka {
						// Inserts are sequential: once one batch is
						// absent, every later one must be too.
						for j := i + 1; j < n; j++ {
							if _, ok := s.Get(key('a', j)); ok {
								return fmt.Errorf("batch %d survived but %d did not", j, i)
							}
							if _, ok := s.Get(key('b', j)); ok {
								return fmt.Errorf("batch %d survived torn after gap at %d", j, i)
							}
						}
						break
					}
					if va[0] != byte(i) || vb[0] != byte(i)^0xff {
						return fmt.Errorf("batch %d recovered with wrong values %x/%x", i, va, vb)
					}
					applied++
				}
				if applied < completed {
					return fmt.Errorf("completed batch lost: %d applied < %d completed", applied, completed)
				}
				return sdb.AllocReconcile()
			},
		}, nil
	}
	switch name {
	case "redodb-bulkval":
		// Same store as "redodb" but with multi-line variable-length
		// values: every insert is an aggregated bulk log record, so the
		// sweeps exercise bulk replay, range undo and the non-temporal
		// full-line path at every crash point.
		var db *redodb.DB
		var s *redodb.Session
		return &Runner{
			Fresh: func(g *pmem.Group) {
				db = redodb.Open(g.Pool(0), redodb.Options{Threads: 1})
				s = db.Session(0)
			},
			Insert: func(i int) {
				s.Put([]byte(fmt.Sprintf("k%03d", i)), bulkVal(i))
			},
			Verify: func(completed, n int) error {
				for i := 0; i < completed; i++ {
					v, ok := s.Get([]byte(fmt.Sprintf("k%03d", i)))
					if !ok {
						return fmt.Errorf("completed put %d lost", i)
					}
					want := bulkVal(i)
					if len(v) != len(want) {
						return fmt.Errorf("put %d recovered %d bytes, want %d", i, len(v), len(want))
					}
					for j := range v {
						if v[j] != want[j] {
							return fmt.Errorf("put %d corrupt at byte %d", i, j)
						}
					}
				}
				return db.AllocReconcile()
			},
		}, nil
	case "redodb", "redodb-legacyalloc":
		// The workload churns a scratch key alongside each insert so the
		// sweep crashes inside Alloc AND Free paths; Verify then audits the
		// allocator against the reachable blocks (AllocReconcile) — on the
		// arena allocator the post-crash reachability pass must have left
		// zero leaks at every injection point. The -legacyalloc variant
		// runs the identical workload on the power-of-two baseline, whose
		// reconcile is vacuous (leak-on-crash is its documented behavior).
		var db *redodb.DB
		var s *redodb.Session
		legacy := name == "redodb-legacyalloc"
		return &Runner{
			Fresh: func(g *pmem.Group) {
				db = redodb.Open(g.Pool(0), redodb.Options{Threads: 1, LegacyAlloc: legacy})
				s = db.Session(0)
			},
			Insert: func(i int) {
				s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte{byte(i)})
				s.Put([]byte("scratch"), bulkVal(i))
				s.Delete([]byte("scratch"))
			},
			Verify: func(completed, n int) error {
				for i := 0; i < completed; i++ {
					v, ok := s.Get([]byte(fmt.Sprintf("k%03d", i)))
					if !ok || v[0] != byte(i) {
						return fmt.Errorf("completed put %d lost", i)
					}
				}
				return db.AllocReconcile()
			},
		}, nil
	case "ONLL":
		var o *onll.ONLL
		set := seqds.ListSet{RootSlot: 0}
		ops := map[uint16]onll.OpFunc{
			1: func(m ptm.Mem, args []uint64) uint64 {
				if set.Add(m, args[0]) {
					return 1
				}
				return 0
			},
		}
		return &Runner{
			Fresh: func(g *pmem.Group) {
				o = onll.New(g.Pool(0), onll.Config{
					Threads: 1,
					Ops:     ops,
					Init: func(m ptm.Mem, args []uint64) uint64 {
						set.Init(m)
						return 0
					},
				})
			},
			Insert: func(i int) { o.Update(0, 1, uint64(i)+1) },
			Verify: func(completed, n int) error {
				keys := seqds.ReadSlice(o, 0, set.Keys)
				return verifyPrefix(keys, completed, n)
			},
		}, nil
	case "rockssim":
		var db *rockssim.DB
		return &Runner{
			Fresh: func(g *pmem.Group) { db = rockssim.Open(g.Pool(0), rockssim.Options{}) },
			Insert: func(i int) {
				db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte{byte(i)})
			},
			Verify: func(completed, n int) error {
				for i := 0; i < completed; i++ {
					v, ok := db.Get([]byte(fmt.Sprintf("k%03d", i)))
					if !ok || v[0] != byte(i) {
						return fmt.Errorf("completed put %d lost", i)
					}
				}
				return nil
			},
		}, nil
	default:
		eng, err := bench.EngineByName(name)
		if err != nil {
			return nil, err
		}
		var p ptm.PTM
		set := seqds.ListSet{RootSlot: 0}
		return &Runner{
			Fresh: func(g *pmem.Group) {
				p = eng.NewOnPool(1, g.Pool(0))
				p.Update(0, func(m ptm.Mem) uint64 {
					if m.Load(ptm.RootAddr(0)) == 0 {
						set.Init(m)
					}
					return 0
				})
			},
			Insert: func(i int) {
				p.Update(0, func(m ptm.Mem) uint64 {
					set.Add(m, uint64(i)+1)
					return 0
				})
			},
			Verify: func(completed, n int) error {
				keys := seqds.ReadSlice(p, 0, set.Keys)
				return verifyPrefix(keys, completed, n)
			},
		}, nil
	}
}

// verifyPrefix asserts keys is 1..k for some completed <= k <= n.
func verifyPrefix(keys []uint64, completed, n int) error {
	if len(keys) < completed || len(keys) > n {
		return fmt.Errorf("recovered %d keys, completed %d of %d", len(keys), completed, n)
	}
	for i, k := range keys {
		if k != uint64(i)+1 {
			return fmt.Errorf("recovered state not a prefix at %d", i)
		}
	}
	return nil
}

// GroupFor allocates the strict-mode pool group for one engine: a single
// pool wrapped in a group for the single-pool engines (mirroring the
// factories' replica counts for a single-thread instance), and the
// coordinator-plus-shards layout for shardeddb.
func GroupFor(name string) *pmem.Group {
	if shards := bufferedShardsOf(name); shards > 0 {
		return shardeddb.NewGroup(shardeddb.GroupConfig{
			Shards: shards, Threads: 1, Mode: pmem.Strict, Buffered: true,
		})
	}
	if shards := shardsOf(name); shards > 0 {
		return shardeddb.NewGroup(shardeddb.GroupConfig{
			Shards: shards, Threads: 1, Mode: pmem.Strict,
		})
	}
	regions := 2
	switch name {
	case "rockssim":
		regions = 3
	case "ONLL":
		regions = 1
	}
	if bufferedDepthOf(name) > 0 {
		// Buffered mode needs a third replica: one pinned by the persister,
		// one carrying curComb, one free for writers.
		regions = 3
	}
	pool := pmem.New(pmem.Config{Mode: pmem.Strict, RegionWords: 1 << 14, Regions: regions})
	return pmem.NewGroup(pool)
}

// onPool lifts a single-pool stale-range declaration to the group form.
func onPool(f func(*pmem.Pool) []pmem.Range) func(*pmem.Group) []pmem.GroupRange {
	return func(g *pmem.Group) []pmem.GroupRange {
		var out []pmem.GroupRange
		for _, r := range f(g.Pool(0)) {
			out = append(out, pmem.GroupRange{Pool: 0, Range: r})
		}
		return out
	}
}

// StaleRangesFor resolves the engine's declaration of which spans committed
// state does not reach — the corruption sweep's bit-flip targets.
func StaleRangesFor(name string) (func(*pmem.Group) []pmem.GroupRange, error) {
	if shardsOf(name) > 0 || bufferedShardsOf(name) > 0 {
		return shardeddb.StaleRanges, nil
	}
	if bufferedDepthOf(name) > 0 {
		return onPool(redodb.StaleRanges), nil
	}
	switch name {
	case "RedoOpt-PTM", "RedoTimed-PTM", "Redo-PTM":
		return onPool(redo.StaleRanges), nil
	case "CX-PTM", "CX-PUC":
		return onPool(cx.StaleRanges), nil
	case "OneFile":
		return onPool(onefile.StaleRanges), nil
	case "RomulusLR":
		return onPool(romulus.StaleRanges), nil
	case "PSim-CoW":
		return onPool(psim.StaleRanges), nil
	case "PMDK":
		return onPool(pmdk.StaleRanges), nil
	case "ONLL":
		return onPool(onll.StaleRanges), nil
	case "redodb", "redodb-bulkval", "redodb-legacyalloc":
		return onPool(redodb.StaleRanges), nil
	case "rockssim":
		return onPool(rockssim.StaleRanges), nil
	}
	return nil, fmt.Errorf("chaos: no stale-range map for engine %q", name)
}
