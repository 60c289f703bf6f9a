package redodb

import (
	"fmt"
	"testing"

	"repro/internal/pmem"
)

// TestWriteBatchCrashAtomicity sweeps power failures across batched writes:
// after recovery each batch must be fully applied or fully absent — the
// LevelDB WriteBatch contract under durability.
func TestWriteBatchCrashAtomicity(t *testing.T) {
	const batches = 10
	const perBatch = 4
	for fail := int64(20); ; fail += 83 {
		pool := pmem.New(pmem.Config{Mode: pmem.Strict, RegionWords: 1 << 16, Regions: 2})
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
				pool.InjectFailure(-1)
			}()
			db := Open(pool, Options{Threads: 1})
			s := db.Session(0)
			pool.InjectFailure(fail)
			for b := 0; b < batches; b++ {
				var batch []Op
				for i := 0; i < perBatch; i++ {
					batch = append(batch, Op{
						Key: []byte(fmt.Sprintf("b%02d-k%d", b, i)),
						Val: []byte(fmt.Sprintf("v%d", b)),
					})
				}
				s.Write(batch, -1, 0)
				completed++
			}
		}()
		if !crashed {
			break
		}
		pool.Crash(pmem.CrashConservative, nil)
		db := Open(pool, Options{Threads: 1})
		s := db.Session(0)
		for b := 0; b < batches; b++ {
			present := 0
			for i := 0; i < perBatch; i++ {
				if _, ok := s.Get([]byte(fmt.Sprintf("b%02d-k%d", b, i))); ok {
					present++
				}
			}
			if present != 0 && present != perBatch {
				t.Fatalf("fail=%d: batch %d recovered partially (%d/%d keys)",
					fail, b, present, perBatch)
			}
			if b < completed && present != perBatch {
				t.Fatalf("fail=%d: completed batch %d lost", fail, b)
			}
		}
	}
}

// TestOverwriteCrashNeverTearsValue sweeps power failures across value
// overwrites of growing sizes: a recovered value must always be one of the
// values fully written, never a mix.
func TestOverwriteCrashNeverTearsValue(t *testing.T) {
	mkVal := func(gen int) []byte {
		v := make([]byte, 40+gen*7)
		for i := range v {
			v[i] = byte(gen)
		}
		return v
	}
	validate := func(v []byte) bool {
		if len(v) == 0 {
			return false
		}
		gen := int(v[0])
		if len(v) != 40+gen*7 {
			return false
		}
		for _, b := range v {
			if b != byte(gen) {
				return false
			}
		}
		return true
	}
	for fail := int64(10); ; fail += 127 {
		pool := pmem.New(pmem.Config{Mode: pmem.Strict, RegionWords: 1 << 15, Regions: 2})
		crashed := false
		completed := 0
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
			db := Open(pool, Options{Threads: 1})
			s := db.Session(0)
			s.Put([]byte("the-key"), mkVal(0))
			pool.InjectFailure(fail)
			for gen := 1; gen <= 8; gen++ {
				s.Put([]byte("the-key"), mkVal(gen))
				completed = gen
			}
		}()
		if !crashed {
			break
		}
		pool.Crash(pmem.CrashConservative, nil)
		db := Open(pool, Options{Threads: 1})
		v, ok := db.Session(0).Get([]byte("the-key"))
		if !ok {
			t.Fatalf("fail=%d: key disappeared", fail)
		}
		if !validate(v) {
			t.Fatalf("fail=%d: torn value (len %d, first byte %d)", fail, len(v), v[0])
		}
		if int(v[0]) < completed {
			t.Fatalf("fail=%d: completed overwrite gen %d lost (found gen %d)",
				fail, completed, v[0])
		}
	}
}
