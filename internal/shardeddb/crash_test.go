package shardeddb

import (
	"fmt"
	"testing"

	"repro/internal/pmem"
)

// TestCrossShardBatchCrashAtomicity sweeps power failures across a stream of
// cross-shard batches: after recovery each batch must be fully applied or
// fully absent on EVERY shard — a crash between the per-shard commits must
// never expose a torn batch. This is exactly the hole the coordinator's
// intent record exists to close. One shard is the plain RedoDB batch: one
// transaction, no coordinator.
func TestCrossShardBatchCrashAtomicity(t *testing.T) {
	const batches = 8
	const perBatch = 6 // "a".."f" prefixes scatter over the shards
	key := func(b, i int) []byte {
		return []byte(fmt.Sprintf("%c-batch%02d", 'a'+i, b))
	}
	for _, shards := range []int{1, 2, 8} {
		for fail := int64(20); ; fail += 97 {
			g := NewGroup(GroupConfig{Shards: shards, Threads: 1, Mode: pmem.Strict})
			completed := 0
			crashed := false
			func() {
				defer func() {
					if r := recover(); r != nil {
						if r != pmem.ErrSimulatedPowerFailure {
							panic(r)
						}
						crashed = true
					}
					g.InjectFailure(-1)
				}()
				s := Open(g, Options{Threads: 1}).Session(0)
				g.InjectFailure(fail)
				for b := 0; b < batches; b++ {
					batch := &WriteBatch{}
					for i := 0; i < perBatch; i++ {
						batch.Put(key(b, i), []byte(fmt.Sprintf("v%d", b)))
					}
					s.Write(batch)
					completed++
				}
			}()
			if !crashed {
				break
			}
			g.Crash(pmem.CrashConservative, nil)
			s := Open(g, Options{Threads: 1}).Session(0)
			for b := 0; b < batches; b++ {
				present := 0
				for i := 0; i < perBatch; i++ {
					if v, ok := s.Get(key(b, i)); ok {
						if string(v) != fmt.Sprintf("v%d", b) {
							t.Fatalf("shards=%d fail=%d: batch %d key %d has wrong value %q",
								shards, fail, b, i, v)
						}
						present++
					}
				}
				if present != 0 && present != perBatch {
					t.Fatalf("shards=%d fail=%d: batch %d recovered torn (%d/%d keys)",
						shards, fail, b, present, perBatch)
				}
				if b < completed && present != perBatch {
					t.Fatalf("shards=%d fail=%d: completed batch %d lost", shards, fail, b)
				}
			}
		}
	}
}

// TestCrossShardBatchCrashAtomicityAdversarial repeats the sweep under the
// adversarial crash model, where dirty lines may spontaneously persist and
// tear at word granularity — the model that catches missing orderings the
// conservative sweep forgives.
func TestCrossShardBatchCrashAtomicityAdversarial(t *testing.T) {
	const batches = 6
	const perBatch = 5
	key := func(b, i int) []byte {
		return []byte(fmt.Sprintf("%c-adv%02d", 'a'+i, b))
	}
	rng := newTestRand(2020)
	for fail := int64(25); ; fail += 113 {
		g := NewGroup(GroupConfig{Shards: 4, Threads: 1, Mode: pmem.Strict})
		completed := 0
		crashed := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if r != pmem.ErrSimulatedPowerFailure {
						panic(r)
					}
					crashed = true
				}
				g.InjectFailure(-1)
			}()
			s := Open(g, Options{Threads: 1}).Session(0)
			g.InjectFailure(fail)
			for b := 0; b < batches; b++ {
				batch := &WriteBatch{}
				for i := 0; i < perBatch; i++ {
					batch.Put(key(b, i), []byte(fmt.Sprintf("w%d", b)))
				}
				s.Write(batch)
				completed++
			}
		}()
		if !crashed {
			break
		}
		g.Crash(pmem.CrashAdversarial, rng)
		s := Open(g, Options{Threads: 1}).Session(0)
		for b := 0; b < batches; b++ {
			present := 0
			for i := 0; i < perBatch; i++ {
				if _, ok := s.Get(key(b, i)); ok {
					present++
				}
			}
			if present != 0 && present != perBatch {
				t.Fatalf("fail=%d: batch %d recovered torn (%d/%d keys)", fail, b, present, perBatch)
			}
			if b < completed && present != perBatch {
				t.Fatalf("fail=%d: completed batch %d lost", fail, b)
			}
		}
	}
}
