// Package shadow implements the shadow memory Alchemist uses to detect
// RAW, WAR, and WAW dependences.
//
// For every flat-memory word the shadow keeps the last write (the only
// source of true RAW and direct WAW dependences) and a small, bounded set
// of reads-since-last-write, one slot per distinct reading PC (the
// sources of WAR dependences). Bounding the reader set trades WAR-edge
// recall for memory; the slot count is configurable and ablated in the
// benchmark suite. Shadow pages are allocated lazily so untouched memory
// costs nothing, and they hold no pointers, so the garbage collector
// never scans them.
package shadow

// Access describes one memory access: which instruction performed it,
// when, and inside which construct instance (an index into the
// profiler's construct pool).
type Access struct {
	Time int64
	Node int32
	PC   int32
}

// DefaultReaderSlots is the default per-word bound on distinct reader PCs
// tracked between writes.
const DefaultReaderSlots = 4

// pageWords is the shadow page granule.
const pageWords = 4096

type page struct {
	// epoch is the Reset generation whose accesses the page holds; an
	// older page is cleared when a run first touches it.
	epoch    uint64
	writes   []Access // len pageWords
	hasWrite []bool
	readers  []Access // len pageWords*K, K slots per word
	nReaders []uint8
}

// Memory is the shadow memory for one profiled execution. It is not safe
// for concurrent use; profiling is sequential by design.
type Memory struct {
	pages []*page
	k     int
	epoch uint64

	// scratch reuses one slice for Store's reader report.
	scratch []Access

	// Stats.
	loads, stores   int64
	evictedReaders  int64
	pagesAllocated  int64
	droppedOutRange int64
}

// Stats reports shadow counters for ablation and diagnostics.
type Stats struct {
	Loads, Stores  int64
	EvictedReaders int64
	PagesAllocated int64
	OutOfRange     int64
}

// New creates shadow memory covering memWords of flat memory, tracking up
// to readerSlots distinct reader PCs per word (0 means
// DefaultReaderSlots).
func New(memWords int64, readerSlots int) *Memory {
	if readerSlots <= 0 {
		readerSlots = DefaultReaderSlots
	}
	nPages := (memWords + pageWords - 1) / pageWords
	return &Memory{
		pages:   make([]*page, nPages),
		k:       readerSlots,
		scratch: make([]Access, 0, readerSlots),
	}
}

// Words returns the flat-memory extent this shadow covers, and Slots the
// per-word reader bound; both identify compatible reuses via Reset.
func (m *Memory) Words() int64 { return int64(len(m.pages)) * pageWords }

// Slots returns the per-word reader-PC bound.
func (m *Memory) Slots() int { return m.k }

// Reset forgets every recorded access so the Memory can shadow a fresh
// run, keeping the already-allocated pages (the point of reuse: batch
// jobs of the same program touch the same pages). It costs O(1): a
// retained page is cleared when the next run first touches it. Counters
// restart at zero; retained pages are not re-counted in PagesAllocated,
// so per-run stats only report allocations the run itself caused.
func (m *Memory) Reset() {
	m.epoch++
	m.loads, m.stores = 0, 0
	m.evictedReaders = 0
	m.pagesAllocated = 0
	m.droppedOutRange = 0
}

// Stats returns a snapshot of the counters.
func (m *Memory) Stats() Stats {
	return Stats{
		Loads: m.loads, Stores: m.stores,
		EvictedReaders: m.evictedReaders,
		PagesAllocated: m.pagesAllocated,
		OutOfRange:     m.droppedOutRange,
	}
}

func (m *Memory) pageFor(addr int64) (*page, int64) {
	if addr < 0 {
		return nil, 0
	}
	pi := addr / pageWords
	if pi >= int64(len(m.pages)) {
		return nil, 0
	}
	p := m.pages[pi]
	if p == nil || p.epoch != m.epoch {
		p = m.touch(pi)
	}
	return p, addr % pageWords
}

// touch readies page pi for the current run: it allocates the page, or
// clears one that holds an earlier run's accesses.
func (m *Memory) touch(pi int64) *page {
	p := m.pages[pi]
	if p == nil {
		p = &page{
			writes:   make([]Access, pageWords),
			hasWrite: make([]bool, pageWords),
			readers:  make([]Access, pageWords*int64(m.k)),
			nReaders: make([]uint8, pageWords),
		}
		m.pages[pi] = p
		m.pagesAllocated++
	} else {
		clear(p.hasWrite)
		clear(p.nReaders)
	}
	p.epoch = m.epoch
	return p
}

// Load records a read of addr and returns the last write to addr, which
// is the head of a RAW dependence ending at this read.
func (m *Memory) Load(addr int64, pc int32, time int64, node int32) (raw Access, hasRAW bool) {
	m.loads++
	p, off := m.pageFor(addr)
	if p == nil {
		m.droppedOutRange++
		return Access{}, false
	}
	// Record the reader: update an existing slot with the same PC, use a
	// free slot, or evict the stalest entry.
	base := off * int64(m.k)
	n := int64(p.nReaders[off])
	slot := int64(-1)
	for i := int64(0); i < n; i++ {
		if p.readers[base+i].PC == pc {
			slot = base + i
			break
		}
	}
	if slot < 0 {
		if n < int64(m.k) {
			slot = base + n
			p.nReaders[off]++
		} else {
			oldest := base
			for i := int64(1); i < n; i++ {
				if p.readers[base+i].Time < p.readers[oldest].Time {
					oldest = base + i
				}
			}
			slot = oldest
			m.evictedReaders++
		}
	}
	p.readers[slot] = Access{Time: time, Node: node, PC: pc}

	if p.hasWrite[off] {
		return p.writes[off], true
	}
	return Access{}, false
}

// Store records a write of addr. It returns the previous write (the head
// of a WAW dependence) and the reads performed since that write (the
// heads of WAR dependences). The returned reader slice is only valid
// until the next call on this Memory.
func (m *Memory) Store(addr int64, pc int32, time int64, node int32) (prev Access, hadPrev bool, readers []Access) {
	m.stores++
	p, off := m.pageFor(addr)
	if p == nil {
		m.droppedOutRange++
		return Access{}, false, nil
	}
	prev, hadPrev = p.writes[off], p.hasWrite[off]
	base := off * int64(m.k)
	n := int64(p.nReaders[off])
	m.scratch = m.scratch[:0]
	for i := int64(0); i < n; i++ {
		m.scratch = append(m.scratch, p.readers[base+i])
	}
	p.nReaders[off] = 0
	p.writes[off] = Access{Time: time, Node: node, PC: pc}
	p.hasWrite[off] = true
	return prev, hadPrev, m.scratch
}
