package palloc

import "testing"

// recMem records every store so a test can replay arbitrary prefixes onto a
// snapshot — the crash model for a raw (non-transactional) heap: any store
// prefix of an Alloc/Free may be the durable state.
type loggedStore struct{ addr, val uint64 }

type recMem struct {
	flatMem
	log []loggedStore
}

func (m *recMem) Store(addr, val uint64) {
	m.log = append(m.log, loggedStore{addr, val})
	m.flatMem.Store(addr, val)
}

// FuzzAllocFree drives arbitrary Alloc/Free/crash interleavings against a
// model and checks, at every operation and at every store-granular crash
// prefix inside an operation, that the heap stays consistent: blocks never
// overlap, InUseWords matches the model, a directory walk never mis-parses,
// and Recover from the published roots reconciles — reclaiming exactly the
// blocks a crash stranded between allocation and publication.
func FuzzAllocFree(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x01, 0x80, 0x02, 0x00, 0x03, 0x00})
	f.Add([]byte{0x04, 0xff, 0x24, 0x40, 0x02, 0x01, 0x46, 0x13, 0x03, 0x00, 0x00, 0x09})
	f.Add([]byte{0x10, 0x07, 0x50, 0x08, 0x90, 0x09, 0x02, 0x00, 0x02, 0x00, 0x03, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 80 {
			data = data[:80]
		}
		const heapWords = 1 << 12
		m := &recMem{flatMem: newMem(heapWords)}
		Format(m, heapWords)

		type blk struct {
			addr, size uint64
			published  bool
		}
		var live []blk
		roots := func(only func(blk) bool) RootEnumerator {
			return func(visit func(uint64)) {
				for _, b := range live {
					if only(b) {
						visit(b.addr)
					}
				}
			}
		}
		published := func(b blk) bool { return b.published }
		sumPublished := func() uint64 {
			var s uint64
			for _, b := range live {
				if b.published {
					s += b.size
				}
			}
			return s
		}
		sumAll := func() uint64 {
			var s uint64
			for _, b := range live {
				s += b.size
			}
			return s
		}

		// crashPrefixes replays every store prefix of the just-executed
		// operation onto the pre-operation snapshot and recovers each one
		// with the pre-operation published roots (a torn operation's
		// transaction rolls back, so the engine republishes its old set).
		crashPrefixes := func(snap flatMem, preRoots RootEnumerator, preSum uint64) {
			for k := 0; k <= len(m.log); k++ {
				img := make(flatMem, len(snap))
				copy(img, snap)
				for _, s := range m.log[:k] {
					img.Store(s.addr, s.val)
				}
				_ = InUseWords(img) // every prefix must parse
				recoverChecked(t, img, preRoots)
				if err := Reconcile(img, preRoots); err != nil {
					t.Fatalf("prefix %d/%d does not reconcile after Recover: %v", k, len(m.log), err)
				}
				if got := InUseWords(img); got != preSum {
					t.Fatalf("prefix %d/%d: InUseWords %d, want %d", k, len(m.log), got, preSum)
				}
			}
		}
		snapshot := func() flatMem {
			s := make(flatMem, len(m.flatMem))
			copy(s, m.flatMem)
			return s
		}

		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			switch op % 4 {
			case 0, 1: // alloc; every third one stays unpublished
				snap, preSum := snapshot(), sumPublished()
				preRoots := rootsOf(func() (as []uint64) {
					for _, b := range live {
						if b.published {
							as = append(as, b.addr)
						}
					}
					return
				}()...)
				m.log = m.log[:0]
				want := uint64(arg)*7%700 + 1
				a := AllocArena(m, int(op>>5)%NumArenas, want)
				if a == 0 {
					continue
				}
				size := UsableWords(m, a)
				if size < want {
					t.Fatalf("Alloc(%d) returned %d usable words", want, size)
				}
				for _, b := range live {
					if a < b.addr+b.size && b.addr < a+size {
						t.Fatalf("double allocation: [%d,%d) overlaps [%d,%d)", a, a+size, b.addr, b.addr+b.size)
					}
				}
				live = append(live, blk{addr: a, size: size, published: op%8 != 1})
				crashPrefixes(snap, preRoots, preSum)
			case 2: // free
				if len(live) == 0 {
					continue
				}
				// The engine drops its reference before freeing, so the
				// published roots exclude the block for every crash prefix:
				// an un-cleared bitmap bit is then a leak Recover reclaims.
				j := int(arg) % len(live)
				addr := live[j].addr
				live = append(live[:j], live[j+1:]...)
				snap, preSum := snapshot(), sumPublished()
				preRoots := roots(published)
				m.log = m.log[:0]
				Free(m, addr)
				crashPrefixes(snap, preRoots, preSum)
			case 3: // crash + recover in place
				recoverChecked(t, m.flatMem, roots(published))
				var kept []blk
				for _, b := range live {
					if b.published {
						kept = append(kept, b)
					}
				}
				live = kept
			}
			if got, want := InUseWords(m), sumAll(); got != want {
				t.Fatalf("op %d: InUseWords %d, model %d", i/2, got, want)
			}
			all := roots(func(blk) bool { return true })
			if err := Reconcile(m, all); err != nil {
				t.Fatalf("op %d: live heap does not reconcile: %v", i/2, err)
			}
			// Crash-free traffic leaves a Recover fixed point, except
			// for multi-block spans drained by Free (compacted lazily).
			n := audit(m, all).Stores
			if n != 0 && !parseHeap(m).drained() {
				t.Fatalf("op %d: crash-free heap needs %d recovery stores", i/2, n)
			}
			if NeedsRecover(m, all) != (n != 0) {
				t.Fatalf("op %d: NeedsRecover disagrees with a dry run of %d stores", i/2, n)
			}
		}
	})
}

// recoverChecked runs Recover on m and checks it against its dry run: the
// audit must predict exactly the stores Recover makes, NeedsRecover must
// agree with it, and the recovered heap must be a fixed point.
func recoverChecked(t *testing.T, m flatMem, roots RootEnumerator) {
	t.Helper()
	want := audit(m, roots).Stores
	if NeedsRecover(m, roots) != (want != 0) {
		t.Fatalf("NeedsRecover disagrees with a dry run of %d stores", want)
	}
	cm := &countMem{flatMem: m}
	if st := Recover(cm, roots); st.Stores != want || uint64(cm.stores) != want {
		t.Fatalf("audit predicted %d stores; Recover reported %d and made %d", want, st.Stores, cm.stores)
	}
	if NeedsRecover(m, roots) {
		t.Fatalf("recovered heap is not a fixed point: audit wants %d more stores", audit(m, roots).Stores)
	}
}

// audit is Recover's dry run: the words Recover would store, storing none.
func audit(m Mem, roots RootEnumerator) RecoverStats {
	return rebuild(m, parseHeap(m), roots, false)
}
