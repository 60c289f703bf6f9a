package psim

import (
	"sync"
	"testing"

	"repro/internal/pmem"
	"repro/internal/ptm"
)

// TestRaceSmoke is a short high-contention workload meant for `go test
// -race`: concurrent updaters and readers share one engine, exercising the
// announce array, the CAS-published current-area switch and the
// copy-on-write path. It asserts only coarse correctness (no lost updates);
// the race detector is the real assertion.
func TestRaceSmoke(t *testing.T) {
	const threads, perThread = 4, 60
	p, _ := newP(t, threads, pmem.Direct)
	addr := ptm.RootAddr(0)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				p.Update(tid, func(m ptm.Mem) uint64 {
					v := m.Load(addr) + 1
					m.Store(addr, v)
					return v
				})
				p.Read(tid, func(m ptm.Mem) uint64 { return m.Load(addr) })
			}
		}(tid)
	}
	wg.Wait()
	got := p.Read(0, func(m ptm.Mem) uint64 { return m.Load(addr) })
	if got != threads*perThread {
		t.Fatalf("counter = %d, want %d (lost updates)", got, threads*perThread)
	}
}

// TestLateWriterWaitsForNextRound announces a writer while a read-only
// round is already applying its batch — the window between the round's scan
// of the announce array and its apply loop. The round decided it needs no
// copy, so the late writer must not run in it (it has no area to write);
// it runs in the next round instead.
func TestLateWriterWaitsForNextRound(t *testing.T) {
	p, _ := newP(t, 2, pmem.Direct)
	addr := ptm.RootAddr(0)
	late := &desc{fn: func(m ptm.Mem) uint64 {
		m.Store(addr, 42)
		return 7
	}}
	p.Read(0, func(m ptm.Mem) uint64 {
		p.reqs[1].Store(late) // thread 1 announces mid-round
		return m.Load(addr)
	})
	if late.applied.Load() {
		t.Fatal("late writer ran in the read-only round that never saw it")
	}
	// The next round applies it (a read in that round still sees the
	// pre-round state); the round after that reads its store.
	p.Read(0, func(m ptm.Mem) uint64 { return m.Load(addr) })
	if !late.applied.Load() || late.result.Load() != 7 {
		t.Fatalf("late writer applied=%v result=%d, want true/7", late.applied.Load(), late.result.Load())
	}
	if got := p.Read(0, func(m ptm.Mem) uint64 { return m.Load(addr) }); got != 42 {
		t.Fatalf("read %d after the late writer's round, want 42", got)
	}
}
