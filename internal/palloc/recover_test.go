package palloc

import (
	"math/bits"
	"testing"
)

// rootsOf builds a RootEnumerator over a fixed address set.
func rootsOf(addrs ...uint64) RootEnumerator {
	return func(visit func(uint64)) {
		for _, a := range addrs {
			visit(a)
		}
	}
}

func TestRecoverReclaimsLeakedBlock(t *testing.T) {
	m, _ := format(1 << 14)
	kept := Alloc(m, 10)
	leaked := Alloc(m, 10) // allocated but never published: a mid-crash leak
	large := Alloc(m, 600)
	if err := Reconcile(m, rootsOf(kept, leaked, large)); err != nil {
		t.Fatalf("fully-reachable heap does not reconcile: %v", err)
	}
	if err := Reconcile(m, rootsOf(kept, large)); err == nil {
		t.Fatal("Reconcile missed the leaked block")
	}
	st := Recover(m, rootsOf(kept, large))
	if st.ReclaimedWords != 10 {
		t.Fatalf("ReclaimedWords = %d, want 10", st.ReclaimedWords)
	}
	if st.ReachableWords != 10+640 {
		t.Fatalf("ReachableWords = %d, want 650", st.ReachableWords)
	}
	if got := InUseWords(m); got != 650 {
		t.Fatalf("InUseWords after Recover = %d, want 650", got)
	}
	if err := Reconcile(m, rootsOf(kept, large)); err != nil {
		t.Fatalf("recovered heap does not reconcile: %v", err)
	}
	// The reclaimed slot is allocatable again.
	if a := Alloc(m, 10); a != leaked {
		t.Fatalf("reclaimed block not reused: got %d, want %d", a, leaked)
	}
}

func TestRecoverReclaimsLeakedLargeBlock(t *testing.T) {
	m, _ := format(1 << 14)
	kept := Alloc(m, 10)
	leakedLarge := Alloc(m, 600)
	st := Recover(m, rootsOf(kept))
	if st.ReclaimedWords != 640 {
		t.Fatalf("ReclaimedWords = %d, want 640", st.ReclaimedWords)
	}
	if got := InUseWords(m); got != 10 {
		t.Fatalf("InUseWords = %d, want 10", got)
	}
	if a := Alloc(m, 600); a != leakedLarge {
		t.Fatalf("reclaimed pages not reused: got %d, want %d", a, leakedLarge)
	}
}

// TestRecoverIsIdempotent: recovering a consistent heap changes nothing —
// zero stores — so engines can run it unconditionally on every open.
func TestRecoverIsIdempotent(t *testing.T) {
	m := &countMem{flatMem: newMem(1 << 14)}
	Format(m, 1<<14)
	a := Alloc(m, 10)
	b := Alloc(m, 100)
	c := Alloc(m, 600)
	Free(m, b)
	roots := rootsOf(a, c)
	Recover(m, roots)
	m.stores = 0
	Recover(m, roots)
	if m.stores != 0 {
		t.Fatalf("second Recover issued %d stores, want 0", m.stores)
	}
}

// TestCrashFreeHeapIsRecoverFixedPoint: traffic without a crash leaves
// nothing for Recover to store, even though Free relinks spans and pushes
// free runs in LIFO order rather than the order Recover would build. The
// churn frees one-block spans and large blocks (both become free runs) and
// relinks full spans out of page order, but drains no multi-block span —
// those stay class-owned until a Recover compacts them.
func TestCrashFreeHeapIsRecoverFixedPoint(t *testing.T) {
	m := &countMem{flatMem: newMem(1 << 18)}
	Format(m, 1<<18)
	var live []uint64
	for i := 0; i < 600; i++ {
		words := []uint64{3, 14, 64, 128, 4, 700}[i%6]
		a := AllocArena(m, i%NumArenas, words)
		if a == 0 {
			t.Fatalf("alloc %d of %d words failed", i, words)
		}
		live = append(live, a)
	}
	// Free in a scrambled order, keeping every multi-block span non-empty.
	for i := 0; i < len(live); i++ {
		j := i * 7919 % len(live)
		a := live[j]
		if a == 0 {
			continue
		}
		p, e0 := spanHead(m, pageOf(m, a))
		if e0&kindMask == kindSpan && classBlocks[classOfE(e0)] > 1 &&
			bits.OnesCount64(m.Load(dir1(p))) == 1 {
			continue
		}
		Free(m, a)
		live[j] = 0
	}
	for i := 0; i < 200; i++ {
		live = append(live, AllocArena(m, i%NumArenas, []uint64{14, 3, 64}[i%3]))
	}
	roots := func(visit func(uint64)) {
		for _, a := range live {
			if a != 0 {
				visit(a)
			}
		}
	}
	if NeedsRecover(m, roots) {
		t.Fatalf("crash-free heap needs recovery: audit wants %d stores", audit(m, roots).Stores)
	}
	m.stores = 0
	if st := Recover(m, roots); m.stores != 0 || st.Stores != 0 {
		t.Fatalf("Recover stored %d words (reported %d) on a crash-free heap, want 0", m.stores, st.Stores)
	}
}

// TestRecoverCompactsEmptySpans: spans drained by Free stay class-owned
// (lazy) until a recovery converts them into coalesced free runs and
// shrinks the virgin frontier past a free tail.
func TestRecoverCompactsEmptySpans(t *testing.T) {
	m, _ := format(1 << 14)
	a := Alloc(m, 4)
	b := Alloc(m, 100) // separate class, separate span
	Free(m, b)
	hw := UsedWords(m)
	Recover(m, rootsOf(a))
	if got := UsedWords(m); got >= hw {
		t.Fatalf("frontier did not shrink past the drained span: %d >= %d", got, hw)
	}
	if err := Reconcile(m, rootsOf(a)); err != nil {
		t.Fatalf("compacted heap does not reconcile: %v", err)
	}
	// The reclaimed pages serve a different class now.
	if got := Alloc(m, 600); got == 0 {
		t.Fatal("large alloc failed after compaction")
	}
}

func TestRecoverRejectsBogusRoots(t *testing.T) {
	m, _ := format(1 << 14)
	a := Alloc(m, 10)
	for _, bad := range []uint64{1, a + 1, MetaWords(m) + (1 << 13)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Recover with bogus root %d did not panic", bad)
				}
			}()
			Recover(m, rootsOf(a, bad))
		}()
	}
}

func TestRecoverOnLegacyIsNoop(t *testing.T) {
	m := &countMem{flatMem: newMem(4096)}
	FormatLegacy(m, 4096)
	a := Alloc(m, 10)
	m.stores = 0
	st := Recover(m, rootsOf(a))
	if m.stores != 0 || st.ReclaimedWords != 0 {
		t.Fatalf("legacy Recover mutated the heap (%d stores)", m.stores)
	}
	if err := Reconcile(m, rootsOf()); err != nil {
		t.Fatalf("legacy Reconcile = %v, want nil (leaks are the baseline there)", err)
	}
}

func TestStatsBreakdown(t *testing.T) {
	m, _ := format(1 << 14)
	a := Alloc(m, 10)
	_ = Alloc(m, 10)
	lg := Alloc(m, 600)
	Free(m, a)
	st := Stats(m)
	if st.InUseWords != InUseWords(m) {
		t.Fatalf("Stats.InUseWords %d != InUseWords %d", st.InUseWords, InUseWords(m))
	}
	var cs *ClassStats
	for i := range st.Classes {
		if st.Classes[i].Size == 10 {
			cs = &st.Classes[i]
		}
	}
	if cs == nil || cs.Spans != 1 || cs.LiveBlocks != 1 {
		t.Fatalf("class-10 stats = %+v, want 1 span / 1 live block", cs)
	}
	if cs.CapBlocks <= cs.LiveBlocks {
		t.Fatal("class-10 span reports no free capacity")
	}
	if st.LargeBlocks != 1 || st.LargePages != 10 {
		t.Fatalf("large stats = %d blocks / %d pages, want 1 / 10", st.LargeBlocks, st.LargePages)
	}
	Free(m, lg)
	if st = Stats(m); st.FreePages != 10 {
		t.Fatalf("FreePages = %d, want 10 after large free", st.FreePages)
	}
}
