package prog

import "sync/atomic"

// Memory is a sparse, paged 64-bit word memory. Pages are 4 KiB (512
// words), allocated on first touch, so workloads with multi-megabyte
// footprints (the LLC-missing kernels) cost ~8 bytes per touched word
// instead of the ~50 bytes a Go map entry would.
//
// Pages are copy-on-write: Clone shares pages between images and a writer
// copies a page only while other images still reference it, so an
// architectural checkpoint of a multi-megabyte footprint costs O(pages)
// pointer copies rather than O(bytes). Reference counts are atomic so one
// frozen image (a checkpoint) may be cloned and the clones written from
// concurrent region workers; a single Memory is still single-writer, like
// any Go map-backed structure.
type Memory struct {
	pages map[uint64]*memPage
	// background, when non-nil, supplies the value of words that were
	// never written, so multi-megabyte tables exist without pages:
	// workloads answer with a deterministic address hash for cold tables
	// and with a table's one value for uniform ones. A write materializes
	// its page from the same function.
	background func(addr uint64) uint64
}

// memPage is one 4 KiB page plus the number of Memory images referencing
// it. A page with refs > 1 is immutable; writers copy it first.
type memPage struct {
	refs  atomic.Int32
	words [wordsPerPage]uint64
}

const (
	pageShift    = 12 // 4 KiB pages
	wordsPerPage = 1 << (pageShift - 3)
	wordMask     = wordsPerPage - 1
)

// NewMemory returns an empty memory (all words read as zero).
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*memPage)}
}

// SetBackground installs a deterministic default-value function for
// never-written words (nil restores reads-as-zero).
func (m *Memory) SetBackground(f func(addr uint64) uint64) { m.background = f }

// Read returns the 8-byte word at the aligned-down byte address.
func (m *Memory) Read(addr uint64) uint64 {
	p := m.pages[addr>>pageShift]
	if p == nil {
		if m.background != nil {
			return m.background(addr &^ 7)
		}
		return 0
	}
	return p.words[(addr>>3)&wordMask]
}

// Write stores the 8-byte word at the aligned-down byte address.
func (m *Memory) Write(addr, v uint64) {
	key := addr >> pageShift
	p := m.pages[key]
	switch {
	case p == nil:
		p = new(memPage)
		p.refs.Store(1)
		if m.background != nil {
			base := key << pageShift
			for i := range p.words {
				p.words[i] = m.background(base + uint64(i)*8)
			}
		}
		m.pages[key] = p
	case p.refs.Load() > 1:
		// Shared with a snapshot: copy before writing. The shared page is
		// immutable until its refcount drops to 1, so reading words here
		// races with nothing; the decrement publishes our release.
		cp := new(memPage)
		cp.words = p.words
		cp.refs.Store(1)
		p.refs.Add(-1)
		m.pages[key] = cp
		p = cp
	}
	p.words[(addr>>3)&wordMask] = v
}

// Clone returns a copy-on-write snapshot: the clone and the receiver share
// all current pages, and whichever side writes a shared page first copies
// just that page. Observationally this is a deep copy (the timing model's
// retired-memory shadow starts as a clone of the initial image; checkpoints
// clone the architectural image).
func (m *Memory) Clone() *Memory {
	c := &Memory{
		pages:      make(map[uint64]*memPage, len(m.pages)),
		background: m.background,
	}
	for k, p := range m.pages {
		p.refs.Add(1)
		c.pages[k] = p
	}
	return c
}

// Pages returns the number of allocated pages (footprint/4 KiB roughly).
func (m *Memory) Pages() int { return len(m.pages) }

// SharedPages returns how many of the allocated pages are currently shared
// with another image (refcount > 1) — a checkpoint-overhead diagnostic.
func (m *Memory) SharedPages() int {
	n := 0
	for _, p := range m.pages {
		if p.refs.Load() > 1 {
			n++
		}
	}
	return n
}
