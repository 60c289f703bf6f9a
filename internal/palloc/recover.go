package palloc

import (
	"fmt"
	"math/bits"
)

// RootEnumerator walks every reachable allocated block of an engine's
// persistent state, calling visit with each block's payload address exactly
// once. Engines register one per heap (redodb's kv map plus its dedup
// table; see redodb.Open) and recovery rebuilds the allocator's occupancy
// state from it.
type RootEnumerator func(visit func(addr uint64))

// RecoverStats reports what a reachability pass changed, or would change
// in a dry run.
type RecoverStats struct {
	ReachableWords uint64 // footprint of blocks the enumerator reached
	ReclaimedWords uint64 // previously-allocated words reclaimed as leaks
	ReclaimedPages uint64 // whole pages returned to the free structure
	Stores         uint64 // words written, or that a dry run would write
}

// segment is one parsed page-directory segment.
type segment struct {
	page   uint64
	npages uint64
	bm     uint64 // spans: occupancy bitmap at parse time
	reach  uint64 // spans: reachable blocks; large blocks: 1 once reached
	kind   uint8
	class  uint8
	arena  uint8
	listed bool // on its free-run or class list (Recover's list checks)
}

// heapImage is a DRAM parse of an arena heap's directory.
type heapImage struct {
	bump, numPages, pagesStart uint64
	segs                       []segment
	segAt                      []int32 // page-1 → index into segs
}

func parseHeap(m Mem) *heapImage {
	h := &heapImage{
		bump:       m.Load(Base + off2Bump),
		numPages:   m.Load(Base + off2NumPages),
		pagesStart: m.Load(Base + off2PagesStart),
	}
	h.segAt = make([]int32, h.bump)
	for p := uint64(1); p <= h.bump; {
		e0 := m.Load(dir0(p))
		s := segment{page: p, kind: uint8(e0 & kindMask)}
		switch s.kind {
		case kindSpan:
			s.class = uint8(classOfE(e0))
			s.arena = uint8(arenaOfE(e0))
			s.npages = npagesOfE(e0)
			s.bm = m.Load(dir1(p)) & fullMask(int(s.class))
		case kindLarge:
			s.npages = m.Load(dir1(p))
		case kindFree:
			s.npages = m.Load(dir1(p))
			if s.npages == 0 {
				s.npages = 1
			}
		default:
			panic(fmt.Sprintf("palloc: corrupt directory at page %d", p))
		}
		idx := int32(len(h.segs))
		h.segs = append(h.segs, s)
		for q := p; q < p+s.npages && q <= h.bump; q++ {
			h.segAt[q-1] = idx
		}
		p += s.npages
	}
	return h
}

// mark records one reachable payload address, validating that it names a
// block start inside an allocated segment that nothing reached before. It
// runs once per reachable block on every open, so the block index avoids a
// division (see blockIndex) and the reach mark lives in the segment itself.
func (h *heapImage) mark(addr uint64) error {
	if addr < h.pagesStart {
		return fmt.Errorf("palloc: reachable address %d inside metadata", addr)
	}
	p := (addr - h.pagesStart) / pageWords
	if p >= h.bump {
		return fmt.Errorf("palloc: reachable address %d beyond claimed heap", addr)
	}
	s := &h.segs[h.segAt[p]]
	off := addr - h.pagesStart - (s.page-1)*pageWords
	switch s.kind {
	case kindSpan:
		i := blockIndex(int(s.class), off)
		if i >= classBlocks[s.class] {
			return fmt.Errorf("palloc: reachable address %d is not a block start", addr)
		}
		if s.reach&(1<<i) != 0 {
			return fmt.Errorf("palloc: address %d reached twice", addr)
		}
		s.reach |= 1 << i
	case kindLarge:
		if off != 0 {
			return fmt.Errorf("palloc: reachable address %d is not a block start", addr)
		}
		if s.reach != 0 {
			return fmt.Errorf("palloc: address %d reached twice", addr)
		}
		s.reach = 1
	default:
		return fmt.Errorf("palloc: reachable address %d in free pages", addr)
	}
	return nil
}

func (h *heapImage) enumerate(roots RootEnumerator) error {
	var err error
	roots(func(addr uint64) {
		if err == nil {
			err = h.mark(addr)
		}
	})
	return err
}

// Recover rebuilds the arena heap's occupancy state from the blocks roots
// reaches: leaked blocks (allocated but unreachable — a crash between Alloc
// and publication) are reclaimed, empty spans and unreachable large blocks
// return to a coalesced free-run list, the virgin frontier shrinks past a
// free tail, and the per-arena class lists hold exactly the spans with free
// capacity. Only differing words are stored, and a free-run or class list
// that already holds exactly the right pages is kept in whatever order
// traffic left it, so a heap that crash-free traffic produced recovers with
// zero stores (see arenaFree for the one exception, a span drained by Free)
// and Recover is idempotent. The caller runs it inside a transaction
// (stores go through m and are logged like any other), after the engine's
// own recovery has restored a consistent image. Legacy heaps have no
// directory to rebuild and are left untouched.
func Recover(m Mem, roots RootEnumerator) RecoverStats {
	if IsLegacy(m) {
		return RecoverStats{}
	}
	return rebuild(m, parseHeap(m), roots, true)
}

// NeedsRecover reports whether Recover would store anything, without
// storing anything itself, so it can run inside a read-only transaction; a
// heap for which it is false is a Recover fixed point. A span with no
// allocated block settles it from the directory alone — Recover compacts
// such a span whatever the roots reach — and otherwise it runs Recover as
// a dry run that counts the stores it would make, panicking on the same
// bad roots.
func NeedsRecover(m Mem, roots RootEnumerator) bool {
	if IsLegacy(m) {
		return false
	}
	h := parseHeap(m)
	return h.drained() || rebuild(m, h, roots, false).Stores != 0
}

// drained reports whether some span has no allocated block.
func (h *heapImage) drained() bool {
	for i := range h.segs {
		if s := &h.segs[i]; s.kind == kindSpan && s.bm == 0 {
			return true
		}
	}
	return false
}

// rebuild is Recover (apply) and its dry run (!apply) over the parsed heap
// h. Its passes never load a word an earlier pass stores, so the dry run
// counts exactly the stores the real run makes.
func rebuild(m Mem, h *heapImage, roots RootEnumerator, apply bool) RecoverStats {
	var st RecoverStats
	if err := h.enumerate(roots); err != nil {
		panic(err.Error())
	}
	diff := func(addr, val uint64) {
		if m.Load(addr) != val {
			st.Stores++
			if apply {
				m.Store(addr, val)
			}
		}
	}
	// Pass 1: settle each segment — rewrite span bitmaps to the reachable
	// set, decide which pages fall free.
	free := make([]bool, h.bump)
	markFree := func(s *segment) {
		for q := s.page; q < s.page+s.npages && q <= h.bump; q++ {
			free[q-1] = true
		}
	}
	freeRuns := 0
	for i := range h.segs {
		s := &h.segs[i]
		switch s.kind {
		case kindSpan:
			size := classSizes[s.class]
			st.ReachableWords += uint64(bits.OnesCount64(s.reach)) * size
			if leaked := s.bm &^ s.reach; leaked != 0 {
				st.ReclaimedWords += uint64(bits.OnesCount64(leaked)) * size
			}
			if s.reach == 0 {
				markFree(s)
				st.ReclaimedPages += s.npages
				continue
			}
			diff(dir1(s.page), s.reach)
		case kindLarge:
			if s.reach != 0 {
				st.ReachableWords += s.npages * pageWords
				continue
			}
			st.ReclaimedWords += s.npages * pageWords
			st.ReclaimedPages += s.npages
			markFree(s)
		case kindFree:
			markFree(s)
			freeRuns++
		}
	}
	// Pass 2: keep the on-media free-run list if it links exactly the
	// free-run segments, each once, and nothing else fell free; otherwise
	// shrink the virgin frontier past a free tail and write the free pages
	// back as a coalesced ascending run list.
	newBump := h.bump
	if st.ReclaimedPages != 0 || !h.runsIntact(m, freeRuns) {
		for newBump > 0 && free[newBump-1] {
			newBump--
		}
		var runs [][2]uint64 // {head page, length}
		for p := uint64(1); p <= newBump; p++ {
			if !free[p-1] {
				continue
			}
			q := p
			for q+1 <= newBump && free[q] {
				q++
			}
			runs = append(runs, [2]uint64{p, q - p + 1})
			p = q
		}
		for i, r := range runs {
			var next uint64
			if i+1 < len(runs) {
				next = runs[i+1][0]
			}
			diff(dir0(r[0]), kindFree|next<<nextShift)
			diff(dir1(r[0]), r[1])
		}
		var runHead uint64
		if len(runs) > 0 {
			runHead = runs[0][0]
		}
		diff(Base+off2FreeRun, runHead)
		diff(Base+off2Bump, newBump)
	}
	// Pass 3: every surviving span with free capacity belongs on its
	// arena's class list, and full spans on none. A list that already holds
	// exactly its spans is kept; any other is rebuilt lowest page first.
	var want [NumArenas][numClasses2]int
	for i := range h.segs {
		if s := &h.segs[i]; s.kind == kindSpan && s.reach != 0 && s.reach != fullMask(int(s.class)) {
			want[s.arena][s.class]++
		}
	}
	var intact [NumArenas][numClasses2]bool
	for a := 0; a < NumArenas; a++ {
		for c := 0; c < numClasses2; c++ {
			intact[a][c] = h.listIntact(m, a, c, free, want[a][c])
		}
	}
	var heads [NumArenas][numClasses2]uint64
	for i := len(h.segs) - 1; i >= 0; i-- {
		s := &h.segs[i]
		if s.kind != kindSpan || s.page > newBump || free[s.page-1] {
			continue
		}
		linked := s.reach != fullMask(int(s.class))
		if linked && intact[s.arena][s.class] {
			continue // listIntact checked its directory word
		}
		var next uint64
		if linked {
			next = heads[s.arena][s.class]
			heads[s.arena][s.class] = s.page
		}
		diff(dir0(s.page), packSpan(uint64(s.class), uint64(s.arena), s.npages, next, linked))
	}
	for a := 0; a < NumArenas; a++ {
		for c := 0; c < numClasses2; c++ {
			if !intact[a][c] {
				diff(listAddr(a, c), heads[a][c])
			}
		}
	}
	return st
}

// runsIntact reports whether the on-media free-run list links exactly the
// heap's n free-run segments, each once, by their head pages.
func (h *heapImage) runsIntact(m Mem, n int) bool {
	seen := 0
	for q := m.Load(Base + off2FreeRun); q != 0; seen++ {
		if q > h.bump || seen == n {
			return false
		}
		s := &h.segs[h.segAt[q-1]]
		e0 := m.Load(dir0(q))
		if s.page != q || s.kind != kindFree || s.listed || e0&^nextMask != kindFree || m.Load(dir1(q)) == 0 {
			return false
		}
		s.listed = true
		q = nextOf(e0)
	}
	return seen == n
}

// listIntact reports whether arena a's class-c list links exactly the n
// surviving spans of that arena and class with free capacity, each once,
// through directory words that need no rewrite.
func (h *heapImage) listIntact(m Mem, a, c int, free []bool, n int) bool {
	seen := 0
	for q := m.Load(listAddr(a, c)); q != 0; seen++ {
		if q > h.bump || free[q-1] || seen == n {
			return false
		}
		s := &h.segs[h.segAt[q-1]]
		if s.page != q || s.kind != kindSpan || int(s.arena) != a || int(s.class) != c ||
			s.reach == fullMask(c) || s.listed {
			return false
		}
		e0 := m.Load(dir0(q))
		if e0 != packSpan(uint64(c), uint64(a), s.npages, nextOf(e0), true) {
			return false
		}
		s.listed = true
		q = nextOf(e0)
	}
	return seen == n
}

// Reconcile checks an arena heap's allocation state against the blocks
// roots reaches, without mutating anything: it returns an error if any
// allocated block is unreachable (a leak) or any reachable address is not a
// live block (corruption). Chaos sweeps call it after every post-crash
// recovery; a heap that just ran Recover always reconciles. Legacy heaps
// (no directory) report nil — the leak-on-crash behavior is the documented
// baseline there.
func Reconcile(m Mem, roots RootEnumerator) error {
	if IsLegacy(m) {
		return nil
	}
	h := parseHeap(m)
	if err := h.enumerate(roots); err != nil {
		return err
	}
	var leakedBlocks, leakedWords uint64
	for i := range h.segs {
		s := &h.segs[i]
		switch s.kind {
		case kindSpan:
			if leaked := s.bm &^ s.reach; leaked != 0 {
				leakedBlocks += uint64(bits.OnesCount64(leaked))
				leakedWords += uint64(bits.OnesCount64(leaked)) * classSizes[s.class]
			}
			if ghost := s.reach &^ s.bm; ghost != 0 {
				return fmt.Errorf("palloc: span at page %d: %d reachable blocks not marked allocated",
					s.page, bits.OnesCount64(ghost))
			}
		case kindLarge:
			if s.reach == 0 {
				leakedBlocks++
				leakedWords += s.npages * pageWords
			}
		}
	}
	if leakedBlocks > 0 {
		return fmt.Errorf("palloc: %d leaked blocks (%d words allocated but unreachable)",
			leakedBlocks, leakedWords)
	}
	return nil
}

// ClassStats describes one size class's occupancy.
type ClassStats struct {
	Size       uint64 // block size, words
	Spans      uint64
	LiveBlocks uint64
	CapBlocks  uint64 // capacity of the claimed spans
}

// HeapStats is the allocator-level space breakdown behind the Fig-8-style
// bytes-per-key figure: per-class occupancy (external fragmentation is
// CapBlocks−LiveBlocks), large-block pages, free pages, and the heap
// frontier.
type HeapStats struct {
	Classes     []ClassStats // one entry per class with claimed spans
	LargeBlocks uint64
	LargePages  uint64
	FreePages   uint64 // pages in free runs (below the frontier)
	BumpPages   uint64 // pages ever claimed
	NumPages    uint64
	InUseWords  uint64
	MetaWords   uint64
}

// Stats summarizes an arena heap's space usage. Legacy heaps report only
// the counters they track (InUseWords, frontier) with no class breakdown.
func Stats(m Mem) HeapStats {
	if IsLegacy(m) {
		return HeapStats{
			InUseWords: m.Load(Base + offInUse),
			MetaWords:  legacyHeapStart,
		}
	}
	h := parseHeap(m)
	var st HeapStats
	st.BumpPages = h.bump
	st.NumPages = h.numPages
	st.MetaWords = h.pagesStart
	var perClass [numClasses2]ClassStats
	for i := range h.segs {
		s := &h.segs[i]
		switch s.kind {
		case kindSpan:
			cs := &perClass[s.class]
			cs.Spans++
			cs.LiveBlocks += uint64(bits.OnesCount64(s.bm))
			cs.CapBlocks += classBlocks[s.class]
			st.InUseWords += uint64(bits.OnesCount64(s.bm)) * classSizes[s.class]
		case kindLarge:
			st.LargeBlocks++
			st.LargePages += s.npages
			st.InUseWords += s.npages * pageWords
		case kindFree:
			st.FreePages += s.npages
		}
	}
	for c := range perClass {
		if perClass[c].Spans > 0 {
			perClass[c].Size = classSizes[c]
			st.Classes = append(st.Classes, perClass[c])
		}
	}
	return st
}
