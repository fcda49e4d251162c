package ooo

// Event-driven scheduler state. The cycle loop used to re-scan the whole
// in-flight window every cycle in stageIssue and stageWriteback; the
// structures here replace those scans with wakeup events so each cycle only
// touches entries whose state can actually change:
//
//   - readyQ holds the waiting entries that may issue this cycle. Rename
//     parks a new entry on its unavailable producers' dependent lists
//     (deps), so it enters readyQ at once only if it has none; completion of
//     a producer wakes its dependents into readyQ. An entry leaves readyQ
//     when it issues, or parks again if a source is still in flight.
//   - done is a min-heap of scheduled completions, keyed by cycle and slot:
//     every doneAt assignment pushes one key, and stageWriteback pops only
//     the keys due now.
//   - pendStores / waiters are the (small) sets the model genuinely
//     re-examines every cycle: stores whose address issued but whose data
//     operand is still in flight, and loads deferred behind an older store.
//   - ldWin / stWin mirror the in-window loads and stores in program order,
//     so store-forwarding search, violation scans and findStoreBySeq touch
//     only memory operations instead of the whole window.
//
// All references are int32 slot indices into the window slabs (soa.go) plus
// the slot's seq for staleness disambiguation — no pointers into window
// state anywhere in the scheduler. Everything here is bookkeeping on top of
// the same per-entry predicates the full scans evaluated; the golden-stat
// tests pin the simulated machine to bit-identical behavior.

// schedRef names a window slot at a point in time. The seq disambiguates a
// slot that was squashed and re-renamed since the reference was taken; stale
// references are dropped wherever they surface.
type schedRef struct {
	seq uint64
	idx int32
}

// slotBits is the width of the slot field of a completion key, which bounds
// the window at 1<<slotBits entries (New panics on a larger ROB).
const slotBits = 16

// doneKey packs a completion as doneAt<<slotBits | slot, so keys order by
// (cycle, slot). It carries no seq: writeback honors a key only while its
// slot is sIssued with that doneAt, which drops a squashed occupant's key.
// A new occupant that completes in the same cycle has its own key there,
// so the stale one finds it sDone and does nothing.
func doneKey(at uint64, slot int) uint64 { return at<<slotBits | uint64(slot) }

// doneHeap is a binary min-heap of completion keys. It is hand-rolled (no
// container/heap) to keep push/pop allocation-free.
type doneHeap []uint64

// next returns the cycle of the earliest key; the heap must not be empty.
func (h doneHeap) next() uint64 { return h[0] >> slotBits }

func (h *doneHeap) push(k uint64) {
	*h = append(*h, k)
	a := *h
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p] <= k {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = k
}

func (h *doneHeap) pop() uint64 {
	a := *h
	top := a[0]
	n := len(a) - 1
	k := a[n]
	a = a[:n]
	*h = a
	i := 0
	for {
		s := 2*i + 1
		if s >= n {
			break
		}
		if r := s + 1; r < n && a[r] < a[s] {
			s = r
		}
		if k <= a[s] {
			break
		}
		a[i] = a[s]
		i = s
	}
	if n > 0 {
		a[i] = k
	}
	return top
}

// seqRing is a growable ring buffer of schedRefs kept in program (seq)
// order: pushBack at rename, popFront at retire, popBack on squash.
type seqRing struct {
	buf  []schedRef
	head int
	n    int
}

func (r *seqRing) init(capacity int) {
	if capacity < 4 {
		capacity = 4
	}
	if cap(r.buf) < capacity {
		r.buf = make([]schedRef, capacity)
	}
	r.buf = r.buf[:cap(r.buf)]
	r.head, r.n = 0, 0
}

func (r *seqRing) len() int { return r.n }

func (r *seqRing) at(i int) schedRef { return r.buf[(r.head+i)%len(r.buf)] }

func (r *seqRing) pushBack(ref schedRef) {
	if r.n == len(r.buf) {
		grown := make([]schedRef, 2*len(r.buf))
		for i := 0; i < r.n; i++ {
			grown[i] = r.at(i)
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = ref
	r.n++
}

func (r *seqRing) popFront() {
	r.head = (r.head + 1) % len(r.buf)
	r.n--
}

func (r *seqRing) popBack() { r.n-- }

// searchSeq returns the smallest position whose seq is >= seq (r.len() when
// none), using the ring's program-order invariant.
func (r *seqRing) searchSeq(seq uint64) int {
	lo, hi := 0, r.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.at(mid).seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// scheduleDone records that slot ri finishes executing at its doneAt. A new
// completion event is machine activity: the idle-elision horizon must be
// recomputed against it (see elide.go).
func (c *Core) scheduleDone(ri int) {
	c.activity = true
	c.done.push(doneKey(c.w.doneAt[ri], ri))
}

// armIssue puts a waiting slot into the ready queue (idempotent). Arming
// is activity: the entry gets an issue attempt next cycle.
func (c *Core) armIssue(ri int) {
	if c.w.flags[ri]&fInReadyQ == 0 {
		c.activity = true
		c.w.flags[ri] |= fInReadyQ
		c.readyQ = append(c.readyQ, schedRef{idx: int32(ri), seq: c.w.seq[ri]})
	}
}

// parkIssue subscribes a waiting slot to the producer of its first
// unavailable source, and takes it out of the ready queue; with nothing
// blocking, it arms the slot instead. One subscription suffices: a source
// becomes available only through a completion it can wait on, and the
// woken slot re-checks all its sources, parking again on one still
// missing. Rename calls it for every new entry, and stageIssue for an
// entry whose issue attempt found a source unavailable. addrOnly restricts
// the check to source 0 (stores issue on the address operand alone). A
// predicted producer whose value rides on an MR-linked store becomes
// available when that store completes — possibly before the producer
// itself executes — so the entry subscribes to both.
func (c *Core) parkIssue(ri int, addrOnly bool) {
	c.w.flags[ri] &^= fInReadyQ
	me := schedRef{idx: int32(ri), seq: c.w.seq[ri]}
	nsrc := 2
	if addrOnly {
		nsrc = 1
	}
	for s := 0; s < nsrc; s++ {
		d := &c.w.src[2*ri+s]
		if !d.hasProd {
			continue
		}
		pi := int(d.prodIdx)
		if c.w.seq[pi] != d.prodSeq {
			continue // producer retired: source available
		}
		if avail, ok := c.destAvail(pi); ok && avail <= c.now {
			continue
		}
		c.deps[pi] = append(c.deps[pi], me)
		if c.w.flags[pi]&fPredicted != 0 {
			if ls := c.w.pred[pi].link; ls >= 0 {
				li := int(ls)
				if c.w.seq[li] == c.w.pred[pi].linkSeq && c.w.state[li] != sDone {
					c.deps[li] = append(c.deps[li], me)
				}
			}
		}
		return
	}
	c.armIssue(ri)
}

// wakeDependents moves the completed slot's subscribers back into the
// ready queue. Stale subscriptions (squashed or already-issued entries) are
// dropped.
func (c *Core) wakeDependents(ri int) {
	dl := c.deps[ri]
	if len(dl) == 0 {
		return
	}
	for i := range dl {
		ref := dl[i]
		ei := int(ref.idx)
		if c.w.seq[ei] == ref.seq && c.w.state[ei] == sWaiting {
			c.armIssue(ei)
		}
	}
	c.deps[ri] = dl[:0]
}

// sortWindowOrder orders refs oldest-first. Sequence numbers increase
// strictly in window order (replayed micro-ops keep their original seq and
// their original order), so sorting by seq reproduces the program-order walk
// the full-window scans performed. Insertion sort: the per-cycle inputs are
// small, nearly sorted already, and it allocates nothing.
func sortWindowOrder(refs []schedRef) {
	for i := 1; i < len(refs); i++ {
		r := refs[i]
		j := i - 1
		for j >= 0 && refs[j].seq > r.seq {
			refs[j+1] = refs[j]
			j--
		}
		refs[j+1] = r
	}
}
