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

	// Set s's lines are current only while setEpoch[s] == epoch. Reset
	// and WarmFill bump epoch instead of writing lines, and set rebuilds
	// a stale set from the spans in warm on its first touch.
	epoch    uint64
	setEpoch []uint64
	warm     []warmSpan

	mshrFree []uint64 // busy-until cycle per MSHR
	// pendingMSHR is the slot reserved by the most recent missing Lookup
	// with mshr set, released by the matching Fill; -1 when none. The
	// hierarchy drives Lookup/Fill as an atomic pair per level, so one slot
	// suffices.
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
		setEpoch:    make([]uint64, nSets),
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
// can be reused across simulation runs. It writes no line: every set goes
// stale and reads as empty from its first touch on.
func (c *Cache) Reset() {
	c.epoch++
	c.warm = c.warm[:0]
	c.tick = 0
	clear(c.mshrFree)
	c.pendingMSHR = -1
	c.Stats = Stats{}
}

func (c *Cache) setOf(addr uint64) []line { return c.set((addr >> c.lineBits) & c.setMask) }

// set returns the ways of set s, rebuilding them first if s is stale.
func (c *Cache) set(s uint64) []line {
	w := c.cfg.Ways
	i := int(s) * w
	set := c.lines[i : i+w : i+w]
	if c.setEpoch[s] != c.epoch {
		c.rebuild(s, set)
	}
	return set
}

// rebuild makes the stale set s current: it clears its ways and replays,
// in order, the lines of the warm spans that map to s, leaving the state
// WarmFill's per-line Fill loop would have left.
//
// That loop only makes clean fills with data ready at cycle 0 on a cache
// fresh from New or Reset. Re-filling a present line then changes nothing
// but the clock, and an insert stamps a larger lru than any before it, so
// the set is a FIFO whose k-th insert lands in way k mod ways. A span's
// lines in s are first+k for k = (s-first) mod sets, then every sets-th
// line; line first+k, if inserted, gets lru = base+k+1, the clock value its
// own Fill would have set. A span's lines are distinct, so only a line an
// earlier span left can be present: a span that overlaps no earlier one
// inserts every line without a presence scan. Once the span has made
// `ways` inserts into s, no earlier line is left: of its remaining lines in
// s, all inserts, only the last `ways` stay.
func (c *Cache) rebuild(s uint64, set []line) {
	clear(set)
	c.setEpoch[s] = c.epoch
	ways, sets := uint64(len(set)), c.setMask+1
	var ins uint64 // inserts into s so far
	for _, sp := range c.warm {
		var made uint64 // inserts sp has made into s
		for k := (s - sp.first) & c.setMask; k < sp.n; k += sets {
			if made == ways {
				if rest := (sp.n-1-k)/sets + 1; rest > ways {
					k += (rest - ways) * sets
					ins += rest - ways
				}
			}
			if tag := sp.first + k; !sp.overlaps || !present(set, tag) {
				set[ins%ways] = line{tag: tag, valid: true, lru: sp.base + k + 1}
				ins++
				made++
			}
		}
	}
}

func (c *Cache) tagOf(addr uint64) uint64 { return addr >> c.lineBits }

// Probe reports whether addr is present (no visible state change, no stats).
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
// (true, readyCycle): readyCycle already includes the hit latency and any
// residual fill delay. On a miss it returns (false, startCycle), and the
// caller must complete the miss with Fill. With mshr set, a miss reserves
// an MSHR and startCycle is when one is free; without it (functional
// warmup, which trains occupancy and replacement state but not
// memory-level parallelism) a miss reserves none and starts at now, and
// the Fill releases nothing. The flag changes only timing: tags, LRU,
// dirty and prefetch bits and Stats move the same either way.
func (c *Cache) Lookup(now uint64, addr uint64, write, mshr bool) (hit bool, when uint64) {
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
	if mshr {
		now = c.allocMSHR(now)
	}
	return false, now
}

// allocMSHR returns the cycle the miss can begin, honouring MSHR limits.
// The reservation is released by Fill via releaseMSHR.
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
// preceding Lookup miss, if that reserved one.
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

// warmSpan is a Span as WarmFill records it: its n lines from line number
// (= tag) first, filled while the LRU clock went from base to base+n, and
// whether any of them is also a line of an earlier span.
type warmSpan struct {
	first, n, base uint64
	overlaps       bool
}

// WarmFill installs the lines of spans in order, each span from its first
// line up to Base+Bytes, as clean lines with data ready at cycle 0. The
// resulting state is bit-identical to calling Fill(a, 0, false, false) for
// each of those lines in turn. It panics unless the cache is untouched since
// New or Reset.
//
// WarmFill writes no line: it records the spans, advances the clock past
// them and makes every set stale, so each set replays its share of the
// spans on its first touch (see rebuild).
func (c *Cache) WarmFill(spans []Span) {
	if c.tick != 0 {
		panic("cache: WarmFill on " + c.cfg.Name + " after it was touched")
	}
	for _, sp := range spans {
		start := sp.Base >> c.lineBits << c.lineBits
		if end := sp.Base + sp.Bytes; end > start {
			w := warmSpan{first: start >> c.lineBits, n: (end-start-1)>>c.lineBits + 1, base: c.tick}
			for _, e := range c.warm {
				if w.first < e.first+e.n && e.first < w.first+w.n {
					w.overlaps = true
					break
				}
			}
			c.warm = append(c.warm, w)
			c.tick += w.n
		}
	}
	c.epoch++
}

func (c *Cache) releaseMSHR(at uint64) {
	if c.mshrFree == nil || c.pendingMSHR < 0 {
		return
	}
	c.mshrFree[c.pendingMSHR] = at
	c.pendingMSHR = -1
}
