package redo

import (
	"fmt"
	"testing"

	"repro/internal/pmem"
	"repro/internal/ptm"
)

// BenchmarkReplayLog replays one committed transaction of n word stores
// onto the replica it left one step behind — the catch-up path every
// writer takes before simulating on a replica that is not curComb. Replay
// fetches each entry with State.entryAt, which walks the log's chunk chain
// from its head, so the cost per entry grows with the log: ns/entry at 64k
// entries is about 64× that at 1k. A cursor that advances through the
// chain would keep ns/entry flat.
func BenchmarkReplayLog(b *testing.B) {
	for _, n := range []uint64{1 << 10, 1 << 13, 1 << 16} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			pool := pmem.New(pmem.Config{Mode: pmem.Direct, RegionWords: 1 << 18, Regions: 2})
			e := New(pool, Config{Threads: 1, Variant: Opt})
			e.Update(0, func(m ptm.Mem) uint64 {
				base := m.Alloc(n)
				for i := uint64(0); i < n; i++ {
					m.Store(base+i, i+1)
				}
				return 0
			})
			cur := idxOf(e.curComb.Load())
			c := e.combs[1-cur]
			from, tail := c.head.Load(), e.combs[cur].head.Load()
			entries := e.resolve(tail).logSize.Load()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.head.Store(from)
				if !e.replay(0, c, tail) {
					b.Fatal("replay did not reach the tail")
				}
				c.dirty = c.dirty[:0] // the commit's flush would drain these
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(entries), "ns/entry")
		})
	}
}
