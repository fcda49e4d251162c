// Package cache implements set-associative caches with LRU replacement,
// write-back/write-allocate semantics, finite MSHRs and per-line fill
// timing, plus the stride and stream prefetchers of the simulated hierarchy
// (paper Table II: "Aggressive multi-stream prefetching into the L2 and LLC.
// PC based stride prefetcher at L1").
//
// The caches are timing-first: tag state updates eagerly at access time and
// each line remembers the cycle its data becomes usable (readyAt), so a
// demand access that races an in-flight prefetch of the same line waits for
// the fill instead of double-fetching.
package cache

import "math/bits"

// Line is one cache line's metadata.
type line struct {
	tag     uint64
	valid   bool
	dirty   bool
	prefet  bool   // brought in by a prefetcher, not yet demanded
	readyAt uint64 // cycle the data arrives
	lru     uint64 // higher = more recently used
}

// Config sizes one cache level.
type Config struct {
	// Name appears in stats ("L1D", "L2", ...).
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// LineBytes is the line size (64 throughout the simulated machine).
	LineBytes int
	// Latency is the round-trip hit latency in core cycles.
	Latency uint64
	// MSHRs bounds concurrent outstanding misses (0 = unlimited).
	MSHRs int
}

// Stats counts cache events.
type Stats struct {
	Accesses      uint64
	Hits          uint64
	Misses        uint64
	PrefetchFills uint64
	PrefetchHits  uint64 // demand hits on prefetched lines
	Writebacks    uint64
}

// MissRate returns misses per access.
func (s *Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is one level of the hierarchy.
type Cache struct {
	cfg      Config
	lines    []line // sets×ways, set-major
	setMask  uint64
	lineBits uint
	tick     uint64 // LRU clock

	mshrFree []uint64 // busy-until cycle per MSHR
	// pendingMSHR is the slot reserved by the most recent missing Lookup,
	// released by the matching Fill; -1 when none. The hierarchy drives
	// Lookup/Fill as an atomic pair per level, so one slot suffices.
	pendingMSHR int

	Stats Stats
}

// New builds a cache from cfg. It panics on non-power-of-two geometry, which
// would indicate a config bug.
func New(cfg Config) *Cache {
	if cfg.LineBytes <= 0 || cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		panic("cache: invalid geometry for " + cfg.Name)
	}
	nLines := cfg.SizeBytes / cfg.LineBytes
	nSets := nLines / cfg.Ways
	if nSets == 0 || nSets&(nSets-1) != 0 {
		panic("cache: set count must be a power of two for " + cfg.Name)
	}
	c := &Cache{
		cfg:         cfg,
		lines:       make([]line, nSets*cfg.Ways),
		setMask:     uint64(nSets - 1),
		pendingMSHR: -1,
	}
	for lb := cfg.LineBytes; lb > 1; lb >>= 1 {
		c.lineBits++
	}
	if cfg.MSHRs > 0 {
		c.mshrFree = make([]uint64, cfg.MSHRs)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Reset restores the cache to its just-constructed state (all lines invalid,
// MSHRs free, stats zeroed) without reallocating the line array, so a cache
// can be reused across simulation runs.
func (c *Cache) Reset() {
	clear(c.lines)
	c.tick = 0
	for i := range c.mshrFree {
		c.mshrFree[i] = 0
	}
	c.pendingMSHR = -1
	c.Stats = Stats{}
}

// LineAddr maps a byte address to its line-aligned address.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineBits << c.lineBits }

func (c *Cache) setOf(addr uint64) []line { return c.set((addr >> c.lineBits) & c.setMask) }

// set returns the ways of set s.
func (c *Cache) set(s uint64) []line {
	w := c.cfg.Ways
	i := int(s) * w
	return c.lines[i : i+w : i+w]
}

func (c *Cache) tagOf(addr uint64) uint64 { return addr >> c.lineBits }

// Probe reports whether addr is present (no state change, no stats).
func (c *Cache) Probe(addr uint64) bool {
	return present(c.setOf(addr), c.tagOf(addr))
}

func present(set []line, tag uint64) bool {
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Lookup performs a demand access at cycle now. On a hit it returns
// (true, readyCycle, 0): readyCycle already includes the hit latency and any
// residual fill delay. On a miss it returns (false, startCycle, victimAddr):
// startCycle is when the miss may proceed to the next level (after MSHR
// availability), and victimAddr is the dirty line that must be written back
// (0 when none). The caller must complete the miss with Fill.
func (c *Cache) Lookup(now uint64, addr uint64, write bool) (hit bool, when uint64, victim uint64) {
	c.Stats.Accesses++
	c.tick++
	tag := c.tagOf(addr)
	set := c.setOf(addr)
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			c.Stats.Hits++
			if l.prefet {
				c.Stats.PrefetchHits++
				l.prefet = false
			}
			l.lru = c.tick
			if write {
				l.dirty = true
			}
			ready := now
			if l.readyAt > ready {
				ready = l.readyAt
			}
			return true, ready + c.cfg.Latency, 0
		}
	}
	c.Stats.Misses++
	start := c.allocMSHR(now)
	return false, start, c.victimAddr(addr)
}

// WarmAccess is the functional-warmup variant of Lookup: it updates tag,
// LRU and dirty state and counts the access like a demand reference, but
// reserves no MSHR — warmup trains occupancy and replacement state, not
// memory-level parallelism, and the warmer's pseudo-clock has no notion of
// outstanding-miss backpressure. On a miss the caller installs the line
// with Fill as usual (Fill finds no pending reservation and releases
// nothing).
func (c *Cache) WarmAccess(now uint64, addr uint64, write bool) (hit bool, when uint64) {
	c.Stats.Accesses++
	c.tick++
	tag := c.tagOf(addr)
	set := c.setOf(addr)
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			c.Stats.Hits++
			if l.prefet {
				c.Stats.PrefetchHits++
				l.prefet = false
			}
			l.lru = c.tick
			if write {
				l.dirty = true
			}
			ready := now
			if l.readyAt > ready {
				ready = l.readyAt
			}
			return true, ready + c.cfg.Latency
		}
	}
	c.Stats.Misses++
	return false, now
}

// allocMSHR returns the cycle the miss can begin, honouring MSHR limits.
// The reservation is released by Fill via freeMSHRAt.
func (c *Cache) allocMSHR(now uint64) uint64 {
	if c.mshrFree == nil {
		return now
	}
	best := 0
	for i := 1; i < len(c.mshrFree); i++ {
		if c.mshrFree[i] < c.mshrFree[best] {
			best = i
		}
	}
	start := now
	if c.mshrFree[best] > start {
		start = c.mshrFree[best]
	}
	// Tentatively hold until far future; Fill shortens it.
	c.mshrFree[best] = start + 1
	c.pendingMSHR = best
	return start
}

func (c *Cache) victimAddr(addr uint64) uint64 {
	set := c.setOf(addr)
	v := c.pickVictim(set)
	l := &set[v]
	if l.valid && l.dirty {
		return l.tag << c.lineBits
	}
	return 0
}

func (c *Cache) pickVictim(set []line) int {
	v := 0
	for i := range set {
		if !set[i].valid {
			return i
		}
		if set[i].lru < set[v].lru {
			v = i
		}
	}
	return v
}

// Fill installs addr's line with data arriving at readyAt. write marks the
// line dirty immediately (write-allocate). prefetched tags the line as
// prefetcher-installed for stats. It releases the MSHR reserved by the
// preceding Lookup miss.
func (c *Cache) Fill(addr uint64, readyAt uint64, write, prefetched bool) {
	c.tick++
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	// Already present (e.g. racing prefetch): refresh timing only.
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			if readyAt < l.readyAt {
				l.readyAt = readyAt
			}
			if write {
				l.dirty = true
			}
			c.releaseMSHR(readyAt)
			return
		}
	}
	v := c.pickVictim(set)
	l := &set[v]
	if l.valid && l.dirty {
		c.Stats.Writebacks++
	}
	*l = line{
		tag:     tag,
		valid:   true,
		dirty:   write,
		prefet:  prefetched,
		readyAt: readyAt,
		lru:     c.tick,
	}
	if prefetched {
		c.Stats.PrefetchFills++
	}
	c.releaseMSHR(readyAt)
}

// Span is the byte range [Base, Base+Bytes) of a warm pass.
type Span struct{ Base, Bytes uint64 }

// spanLines returns the line number (= tag) of s's first line and how many
// lines the walk from that line up to Base+Bytes visits.
func (c *Cache) spanLines(s Span) (first, n uint64) {
	start := s.Base >> c.lineBits << c.lineBits
	end := s.Base + s.Bytes
	if end <= start {
		return start >> c.lineBits, 0
	}
	return start >> c.lineBits, (end-start-1)>>c.lineBits + 1
}

// WarmFill installs the lines of spans in order, each span from its first
// line up to Base+Bytes, as clean lines with data ready at cycle 0. The
// resulting state is bit-identical to calling Fill(a, 0, false, false) for
// each of those lines in turn. It panics unless the cache is untouched since
// New or Reset.
//
// On such a cache every one of those fills is a clean insert or a re-fill of
// a present line, which advances only the LRU clock, so each set behaves as a
// FIFO: its k-th insert lands in way k mod Ways, and the way of its next
// insert is the one pickVictim names. WarmFill therefore writes each line
// straight into its way. Only a span that overlaps an earlier one can find a
// line present, and replayHits bounds where. Of the lines after that, a span
// writes only the last C = sets×ways, which overwrite every way; the clock
// and the per-set insert counts advance arithmetically over the lines in
// between. fifoRun writes those lines set by set, in the order of the
// set-major line slice.
func (c *Cache) WarmFill(spans []Span) {
	if c.tick != 0 {
		panic("cache: WarmFill on " + c.cfg.Name + " after it was touched")
	}
	capLines := uint64(len(c.lines))
	for i, sp := range spans {
		first, n := c.spanLines(sp)
		if n == 0 {
			continue
		}
		var j uint64 // lines [0, j) may hit; no line from j on is present
		for _, prev := range spans[:i] {
			if pf, pn := c.spanLines(prev); pn > 0 && first < pf+pn && pf < first+n {
				j = c.replayHits(first, n)
				break
			}
		}
		var skip uint64
		if n-j > capLines {
			skip = n - j - capLines
		}
		c.fifoRun(first+j, skip, n-j-skip)
	}
}

// fifoInsert inserts the line tag, not present, as Fill would.
func (c *Cache) fifoInsert(tag uint64) {
	c.tick++
	set := c.set(tag & c.setMask)
	set[c.pickVictim(set)] = line{tag: tag, valid: true, lru: c.tick}
}

// fifoRun accounts for inserting the skip+n consecutive lines from first,
// none of them present, and writes the last n. skip is 0 unless n = C, so
// the written lines overwrite every way.
//
// It writes set by set, so it walks the set-major line slice in order (but
// for one wrap past set 0) and only over the min(n, sets) sets the lines
// touch. Of the written lines, those in set s are start+i, start+i+sets, ...
// for i = (s - start) mod sets, where start = first+skip. They take
// consecutive ways from the way the set's next insert would take:
// pickVictim's, advanced by the skipped lines that fell in s. The line
// start+k gets lru tick+skip+1+k, the clock value its own insert would have
// set.
func (c *Cache) fifoRun(first, skip, n uint64) {
	ways := uint64(c.cfg.Ways)
	sets := c.setMask + 1
	start := first + skip
	lru := c.tick + skip + 1
	for i := uint64(0); i < n && i < sets; i++ {
		s := (start + i) & c.setMask
		set := c.set(s)
		w := uint64(c.pickVictim(set))
		if skip > 0 {
			skipped := skip / sets
			if (s-first)&c.setMask < skip%sets {
				skipped++
			}
			w = (w + skipped) % ways
		}
		for k := i; k < n; k += sets {
			set[w] = line{tag: start + k, valid: true, lru: lru + k}
			if w++; w == ways {
				w = 0
			}
		}
	}
	c.tick += skip + n
}

// replayHits fills the head of the span [first, first+n) that may re-fill a
// line an earlier span left in the cache, and returns its length.
//
// In set s the span's k-th line is first + j + k·sets for a fixed j. A line
// left in s at FIFO rank r (the number of further inserts into s it
// survives) is found present iff its k, minus the hits s takes before it, is
// at most r. So s takes no hit at all unless one of its lines has k ≤ r, and
// after s has taken `ways` inserts from the span no earlier line is left in
// it. replayHits checks lines against their set only in such sets, and only
// until then: at most 2C lines, and none when no set can take a hit.
func (c *Cache) replayHits(first, n uint64) uint64 {
	ways := uint64(c.cfg.Ways)
	setBits := bits.OnesCount64(c.setMask)
	var left []uint64 // per set: inserts still checked for hits; nil until a set is watched
	watched := 0
	for j := uint64(0); j < n && j <= c.setMask; j++ {
		s := (first + j) & c.setMask
		set := c.set(s)
		next := uint64(c.pickVictim(set))
		for w := range set {
			l := &set[w]
			rank := (uint64(w) + ways - next) % ways
			if l.valid && l.tag-first < n && (l.tag-first)>>setBits <= rank {
				if left == nil {
					left = make([]uint64, c.setMask+1)
				}
				left[s] = ways
				watched++
				break
			}
		}
	}
	var j uint64
	for ; watched > 0 && j < n; j++ {
		tag := first + j
		s := tag & c.setMask
		if left[s] > 0 {
			if present(c.set(s), tag) {
				c.tick++
				continue
			}
			if left[s]--; left[s] == 0 {
				watched--
			}
		}
		c.fifoInsert(tag)
	}
	return j
}

func (c *Cache) releaseMSHR(at uint64) {
	if c.mshrFree == nil || c.pendingMSHR < 0 {
		return
	}
	c.mshrFree[c.pendingMSHR] = at
	c.pendingMSHR = -1
}

// Invalidate drops addr's line if present (used by tests).
func (c *Cache) Invalidate(addr uint64) {
	tag := c.tagOf(addr)
	set := c.setOf(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i] = line{}
		}
	}
}
