package palloc

import (
	"fmt"
	"math/bits"
)

// Arena heap layout (all word offsets relative to Base):
//
//	+0  magic ("palloc02")
//	+1  heapEnd            configured region end, words
//	+2  pageBump           pages ever claimed from the virgin frontier
//	+3  freeRunHead        page index of the first free run (0 = none)
//	+4  numPages           total pages in the heap
//	+5  pagesStart         word address of page 1 (cache-line aligned)
//	+6  +7                 reserved
//	+8  class list heads   NumArenas × numClasses2 words (page index, 0 = none)
//	    page directory     2 words per page
//	    pages              numPages × 64 words
//
// Every page has a two-word directory entry. The first word of a segment
// head packs [kind | class | arena | linked | npages | next]; the second
// word is the span occupancy bitmap (span heads), the page count (large
// heads), or the run length (free-run heads). Continuation entries point
// back at their head so Free maps an address to its span in O(1). The page
// directory is walkable front to back: every head entry says how many pages
// its segment covers, so InUseWords and Recover scan it sequentially.
const (
	offMagic   = 0
	offHeapEnd = 1

	off2Bump       = 2
	off2FreeRun    = 3
	off2NumPages   = 4
	off2PagesStart = 5
	off2Lists      = 8
)

// NumArenas is the number of independent class free-list sets. Callers pick
// an arena deterministically (owner thread id, shard id); 0 always works.
const NumArenas = 4

// pageWords is the page size: one span bitmap word covers at most 64 blocks,
// and a 64-word page is exactly one replica cache-line group (512 B).
const pageWords = 64

// classSizes are the block sizes in words: {2..8} then four sizes per
// octave, a 1.25× spacing that caps rounding waste at 25% (the legacy
// power-of-two classes waste up to 100%). Every size is odd×2^j with
// odd ≤ 7, so a span of npages(c) pages divides into blocks with zero
// remainder — classes have no per-span waste and no per-block headers.
var classSizes = [...]uint64{
	2, 3, 4, 5, 6, 7, 8,
	10, 12, 14, 16,
	20, 24, 28, 32,
	40, 48, 56, 64,
	80, 96, 112, 128,
	160, 192, 224, 256,
	320, 384, 448, 512,
}

const (
	numClasses2 = len(classSizes)
	maxSmall    = 512 // largest class size; bigger requests get dedicated pages
	dirStart    = uint64(Base + off2Lists + NumArenas*numClasses2)
)

// classBlocks and classPages derive the span geometry: blocks per span
// (≤ 64, one bitmap word) and pages per span. classLog2 and classInv split
// each size into 2^classLog2 × odd and hold odd's inverse mod 2^64, for
// blockIndex.
var (
	classBlocks [numClasses2]uint64
	classPages  [numClasses2]uint64
	classLog2   [numClasses2]uint8
	classInv    [numClasses2]uint64
	classOf     [maxSmall + 1]uint8 // request words → smallest fitting class
)

func init() {
	for c, s := range classSizes {
		tz := uint(bits.TrailingZeros64(s))
		j := min(tz, 6)
		b := uint64(64) >> j
		classBlocks[c] = b
		classPages[c] = s * b / pageWords
		classLog2[c] = uint8(tz)
		odd := s >> tz
		inv := odd // Newton's iteration doubles the correct low bits
		for i := 0; i < 5; i++ {
			inv *= 2 - odd*inv
		}
		classInv[c] = inv
	}
	c := 0
	for w := 1; w <= maxSmall; w++ {
		if uint64(w) > classSizes[c] {
			c++
		}
		classOf[w] = uint8(c)
	}
}

// Directory entry packing (head word).
const (
	kindFree  = 0 // free-run head; word1 = run length in pages
	kindSpan  = 1 // class-span head; word1 = occupancy bitmap
	kindLarge = 2 // dedicated-pages head; word1 = page count
	kindCont  = 3 // continuation; next field = head page index

	kindMask   = 0x3
	classShift = 2
	classMask  = uint64(0x3f) << classShift
	arenaShift = 8
	arenaMask  = uint64(0x7) << arenaShift
	linkedBit  = uint64(1) << 11
	npShift    = 12
	npMask     = uint64(0xfff) << npShift
	nextShift  = 24
	nextMask   = uint64(0xffffff) << nextShift
)

func packSpan(class, arena, npages, next uint64, linked bool) uint64 {
	w := kindSpan | class<<classShift | arena<<arenaShift | npages<<npShift | next<<nextShift
	if linked {
		w |= linkedBit
	}
	return w
}

func nextOf(e uint64) uint64    { return e >> nextShift & 0xffffff }
func classOfE(e uint64) int     { return int(e & classMask >> classShift) }
func arenaOfE(e uint64) int     { return int(e & arenaMask >> arenaShift) }
func npagesOfE(e uint64) uint64 { return e & npMask >> npShift }

func dir0(p uint64) uint64 { return dirStart + 2*(p-1) }
func dir1(p uint64) uint64 { return dirStart + 2*(p-1) + 1 }

func pageAddr(m Mem, p uint64) uint64 {
	return m.Load(Base+off2PagesStart) + (p-1)*pageWords
}

func listAddr(arena, class int) uint64 {
	return Base + off2Lists + uint64(arena*numClasses2+class)
}

// blockIndex returns the index of the class-c block starting at span offset
// off, or a number >= classBlocks[c] when off is not a block start. With
// size = 2^j × odd, off/size is a shift and a multiply by odd's inverse mod
// 2^64: when odd does not divide the shifted offset, the product wraps to
// at least 2^64/odd, far beyond any block count, so one compare rejects
// both misalignments and overruns without a division.
func blockIndex(c int, off uint64) uint64 {
	if off&(1<<classLog2[c]-1) != 0 {
		return ^uint64(0)
	}
	return (off >> classLog2[c]) * classInv[c]
}

func fullMask(class int) uint64 {
	if classBlocks[class] == 64 {
		return ^uint64(0)
	}
	return 1<<classBlocks[class] - 1
}

// layout computes the page count and first-page address for a heap of
// heapEnd words: the directory (2 words/page) plus the pages themselves
// must fit between dirStart and heapEnd, with pages cache-line aligned.
func layout(heapEnd uint64) (numPages, pagesStart uint64) {
	if heapEnd <= dirStart+2 {
		return 0, 0
	}
	numPages = (heapEnd - dirStart) / (2 + pageWords)
	for numPages > 0 {
		pagesStart = (dirStart + 2*numPages + 7) &^ 7
		if pagesStart+numPages*pageWords <= heapEnd {
			return numPages, pagesStart
		}
		numPages--
	}
	return 0, 0
}

// Format initializes an arena heap in the region viewed through m. The heap
// occupies [MetaWords, heapEnd) words. Formatting an already formatted heap
// resets it, dropping all allocations. The magic is written last so a crash
// mid-format leaves an unformatted region, never a half-initialized heap.
func Format(m Mem, heapEnd uint64) {
	numPages, pagesStart := layout(heapEnd)
	if numPages < 1 {
		panic(fmt.Sprintf("palloc: heap too small (%d words)", heapEnd))
	}
	m.Store(Base+offHeapEnd, heapEnd)
	m.Store(Base+off2Bump, 0)
	m.Store(Base+off2FreeRun, 0)
	m.Store(Base+off2NumPages, numPages)
	m.Store(Base+off2PagesStart, pagesStart)
	m.Store(Base+6, 0)
	m.Store(Base+7, 0)
	for i := 0; i < NumArenas*numClasses2; i++ {
		m.Store(Base+off2Lists+uint64(i), 0)
	}
	m.Store(Base+offMagic, magicArena)
}

// classFor returns the smallest class whose blocks hold words payload words.
func classFor(words uint64) int { return int(classOf[words]) }

// findPages locates n contiguous free pages, first-fit over the free-run
// list and then the virgin frontier, without mutating anything. It returns
// the first page, the predecessor link to rewrite (0 = the freeRunHead
// word itself) and whether the pages come from a run.
func findPages(m Mem, n uint64) (p, prev uint64, fromRun bool) {
	prev = 0
	for q := m.Load(Base + off2FreeRun); q != 0; q = nextOf(m.Load(dir0(q))) {
		if m.Load(dir1(q)) >= n {
			return q, prev, true
		}
		prev = q
	}
	bump := m.Load(Base + off2Bump)
	if bump+n > m.Load(Base+off2NumPages) {
		return 0, 0, false
	}
	return bump + 1, 0, false
}

// claimPages takes n pages located by findPages out of the free structure.
// Ordering matters for crash prefixes: the remainder run head and the list
// unlink are written before the claimed pages' entries change meaning, so a
// sequential directory walk parses every prefix (see Recover).
func claimPages(m Mem, p, prev, n uint64, fromRun bool) {
	if !fromRun {
		return // pages beyond pageBump are invisible until the bump store
	}
	runLen := m.Load(dir1(p))
	next := nextOf(m.Load(dir0(p)))
	link := next
	if runLen > n {
		rem := p + n
		m.Store(dir0(rem), kindFree|next<<nextShift)
		m.Store(dir1(rem), runLen-n)
		link = rem
	}
	if prev == 0 {
		m.Store(Base+off2FreeRun, link)
	} else {
		m.Store(dir0(prev), m.Load(dir0(prev))&^nextMask|link<<nextShift)
	}
}

// arenaAlloc is the arena-format allocation path. Steady-state reuse is a
// single logged store: set one bit in the head span's occupancy bitmap.
// Claiming a fresh span costs npages+3 stores amortized over its blocks.
func arenaAlloc(m Mem, arena int, words uint64) uint64 {
	if words == 0 {
		words = 1
	}
	if arena < 0 || arena >= NumArenas {
		panic(fmt.Sprintf("palloc: arena %d out of range", arena))
	}
	if words > maxSmall {
		return arenaAllocLarge(m, words)
	}
	c := classFor(words)
	size := classSizes[c]
	full := fullMask(c)
	lh := listAddr(arena, c)
	for p := m.Load(lh); p != 0; {
		e0 := m.Load(dir0(p))
		bm := m.Load(dir1(p))
		if bm&full != full {
			i := uint64(bits.TrailingZeros64(^bm & full))
			nbm := bm | 1<<i
			m.Store(dir1(p), nbm)
			if nbm&full == full {
				// The span just filled: unlink it so the list only ever
				// holds spans with a free block.
				m.Store(lh, nextOf(e0))
				m.Store(dir0(p), e0&^(linkedBit|nextMask))
			}
			return pageAddr(m, p) + i*size
		}
		// A full span at the head is a crash remnant (the filling store
		// landed but the unlink did not): pop it and keep looking.
		m.Store(lh, nextOf(e0))
		m.Store(dir0(p), e0&^(linkedBit|nextMask))
		p = nextOf(e0)
	}
	// No span with room: claim one. Entries are written before the span
	// becomes reachable (bump advance / list head), so every store prefix
	// leaves a parseable directory.
	npages := classPages[c]
	p, prev, fromRun := findPages(m, npages)
	if p == 0 {
		return 0
	}
	claimPages(m, p, prev, npages, fromRun)
	for q := p + 1; q < p+npages; q++ {
		m.Store(dir0(q), kindCont|p<<nextShift)
	}
	link := classBlocks[c] > 1 // a one-block span is born full: keep it off the list
	m.Store(dir0(p), packSpan(uint64(c), uint64(arena), npages, 0, link))
	m.Store(dir1(p), 1)
	if !fromRun {
		m.Store(Base+off2Bump, m.Load(Base+off2Bump)+npages)
	}
	if link {
		m.Store(lh, p)
	}
	return pageAddr(m, p)
}

// arenaAllocLarge serves requests beyond the largest class with dedicated
// pages: 3 stores, ≤ pageWords-1 words of rounding waste.
func arenaAllocLarge(m Mem, words uint64) uint64 {
	if words > ^uint64(0)-pageWords {
		return 0 // reject before (words+63) can wrap
	}
	npages := (words + pageWords - 1) / pageWords
	if npages > m.Load(Base+off2NumPages) {
		return 0
	}
	p, prev, fromRun := findPages(m, npages)
	if p == 0 {
		return 0
	}
	claimPages(m, p, prev, npages, fromRun)
	m.Store(dir0(p), kindLarge)
	m.Store(dir1(p), npages)
	if !fromRun {
		m.Store(Base+off2Bump, m.Load(Base+off2Bump)+npages)
	}
	return pageAddr(m, p)
}

// pageOf maps a heap address to its page index, panicking on addresses
// outside the claimed heap.
func pageOf(m Mem, addr uint64) uint64 {
	ps := m.Load(Base + off2PagesStart)
	if addr < ps {
		panic(fmt.Sprintf("palloc: address %d inside metadata", addr))
	}
	p := (addr-ps)/pageWords + 1
	if p > m.Load(Base+off2Bump) {
		panic(fmt.Sprintf("palloc: address %d beyond claimed heap", addr))
	}
	return p
}

// spanHead resolves the page holding addr to its segment head page.
func spanHead(m Mem, p uint64) (head uint64, e0 uint64) {
	e0 = m.Load(dir0(p))
	if e0&kindMask == kindCont {
		head = nextOf(e0)
		return head, m.Load(dir0(head))
	}
	return p, e0
}

// arenaFree is the arena-format deallocation path: clear one bitmap bit
// (one store); a span returning from full to non-full relinks into its
// arena's class list, and a large block becomes a free run — its directory
// words already hold the run geometry, so the kind flip is a single store.
// A one-block span emptied by its only Free becomes a free run too, for
// the same three stores a relink would cost: it is the shape Recover gives
// a drained span, so crash-free traffic leaves Recover nothing to do.
// Multi-block spans drained by Free stay on their class list instead, so
// alloc/free churn inside a span stays at one store each way; Recover
// compacts them when it runs.
func arenaFree(m Mem, addr uint64) {
	p, e0 := spanHead(m, pageOf(m, addr))
	switch e0 & kindMask {
	case kindLarge:
		if addr != pageAddr(m, p) {
			panic(fmt.Sprintf("palloc: Free(%d): not a block start", addr))
		}
		pushRun(m, p)
	case kindSpan:
		c := classOfE(e0)
		i := blockIndex(c, addr-pageAddr(m, p))
		if i >= classBlocks[c] {
			panic(fmt.Sprintf("palloc: Free(%d): not a block start", addr))
		}
		bm := m.Load(dir1(p))
		if bm&(1<<i) == 0 {
			panic(fmt.Sprintf("palloc: Free(%d): block already free", addr))
		}
		if classBlocks[c] == 1 {
			// The run length lands before the kind flip, so every
			// store prefix parses (the span's pages are unreachable,
			// and Recover reclaims them at any prefix).
			m.Store(dir1(p), npagesOfE(e0))
			pushRun(m, p)
			return
		}
		m.Store(dir1(p), bm&^(1<<i))
		if full := fullMask(c); bm&full == full {
			lh := listAddr(arenaOfE(e0), c)
			m.Store(dir0(p), e0&^nextMask|linkedBit|m.Load(lh)<<nextShift)
			m.Store(lh, p)
		}
	default:
		panic(fmt.Sprintf("palloc: Free(%d): not an allocated address", addr))
	}
}

// pushRun turns the segment headed at page p, whose second directory word
// already holds its page count, into a free run at the head of the list.
func pushRun(m Mem, p uint64) {
	m.Store(dir0(p), kindFree|m.Load(Base+off2FreeRun)<<nextShift)
	m.Store(Base+off2FreeRun, p)
}

func arenaUsableWords(m Mem, addr uint64) uint64 {
	p, e0 := spanHead(m, pageOf(m, addr))
	switch e0 & kindMask {
	case kindLarge:
		return m.Load(dir1(p)) * pageWords
	case kindSpan:
		return classSizes[classOfE(e0)]
	}
	panic(fmt.Sprintf("palloc: UsableWords(%d): not an allocated address", addr))
}

// arenaInUseWords walks the page directory front to back, summing live
// block footprints (bitmap popcount × class size, large page counts).
func arenaInUseWords(m Mem) uint64 {
	var sum uint64
	bump := m.Load(Base + off2Bump)
	for p := uint64(1); p <= bump; {
		e0 := m.Load(dir0(p))
		switch e0 & kindMask {
		case kindSpan:
			c := classOfE(e0)
			sum += uint64(bits.OnesCount64(m.Load(dir1(p))&fullMask(c))) * classSizes[c]
			p += npagesOfE(e0)
		case kindLarge:
			n := m.Load(dir1(p))
			sum += n * pageWords
			p += n
		case kindFree:
			n := m.Load(dir1(p))
			if n == 0 {
				n = 1
			}
			p += n
		default:
			panic(fmt.Sprintf("palloc: corrupt directory at page %d", p))
		}
	}
	return sum
}
