package ooo

import "fvp/internal/isa"

// ------------------------------------------------------------------ issue

// portBudget is the per-cycle issue bandwidth per class.
type portBudget struct {
	alu, load, store, fp, br int
}

func (b *portBudget) take(class int) bool {
	var p *int
	switch class {
	case classLoad:
		p = &b.load
	case classStore:
		p = &b.store
	case classFP, classFPDiv:
		p = &b.fp
	case classBranch:
		p = &b.br
	case classNop:
		return true
	default:
		p = &b.alu
	}
	if *p <= 0 {
		return false
	}
	*p--
	return true
}

// stageIssue used to scan the whole window; it now walks only the ready
// queue, which an entry enters when none of its producers is in flight or
// the producer it parked on completes (see parkIssue). An entry whose
// sources turn out unavailable parks again, on the producer of a source
// still missing. Entries that are source-ready but blocked on a port or the
// store-sets gate stay armed and are re-examined every cycle: the full scan
// re-evaluated ready() for them each cycle, and ready() records the
// last-arriving producer (criticality state the oracle walk reads), so their
// per-cycle re-check is part of the modeled machine, not an optimization
// choice. Candidates are processed oldest-first with the shared port budget,
// exactly like the program-order scan.
func (c *Core) stageIssue() {
	if len(c.readyQ) == 0 {
		return
	}
	b := c.ports
	cand := c.issueCand[:0]
	for _, ref := range c.readyQ {
		ei := int(ref.idx)
		if c.w.seq[ei] == ref.seq && c.w.state[ei] == sWaiting && c.w.flags[ei]&fInReadyQ != 0 {
			cand = append(cand, ref)
		}
	}
	c.readyQ = c.readyQ[:0]
	sortWindowOrder(cand)
	for _, ref := range cand {
		ri := int(ref.idx)
		if c.w.seq[ri] != ref.seq || c.w.state[ri] != sWaiting {
			continue // squashed by a flush earlier in this pass
		}
		class := classOf(c.w.inst[ri].Op)
		switch class {
		case classStore:
			// Store-address issue needs only the address source.
			if _, ok := c.srcReady(ri, 0, c.now); !ok {
				c.parkIssue(ri, true)
				continue
			}
			if !b.take(class) {
				c.readyQ = append(c.readyQ, ref) // stay armed
				continue
			}
			c.w.flags[ri] &^= fInReadyQ
			c.issueStore(ri)
		case classLoad:
			if !c.ready(ri, c.now) {
				c.parkIssue(ri, false)
				continue
			}
			if !c.loadMayIssue(ri) {
				c.readyQ = append(c.readyQ, ref) // stay armed
				continue
			}
			if !b.take(class) {
				c.readyQ = append(c.readyQ, ref) // stay armed
				continue
			}
			c.w.flags[ri] &^= fInReadyQ
			c.issueLoad(ri)
		default:
			if !c.ready(ri, c.now) {
				c.parkIssue(ri, false)
				continue
			}
			if !b.take(class) {
				c.readyQ = append(c.readyQ, ref) // stay armed
				continue
			}
			c.w.flags[ri] &^= fInReadyQ | fInIQ
			c.w.cold[ri].issueAt = c.now
			c.w.state[ri] = sIssued
			c.w.doneAt[ri] = c.now + c.cfg.latencyFor(class)
			c.iqCount--
			if c.trc != nil {
				c.trc.PipeEvent(EvIssue, c.now, &c.w.inst[ri], 0)
			}
			c.scheduleDone(ri)
		}
	}
	c.issueCand = cand[:0]
}

// loadMayIssue applies the store-sets gate: a load predicted dependent on a
// specific store waits until that store has produced its data.
func (c *Core) loadMayIssue(ri int) bool {
	cold := &c.w.cold[ri]
	if cold.ssWaitIdx < 0 {
		return true
	}
	si := int(cold.ssWaitIdx)
	if c.w.seq[si] != cold.ssWaitSeq {
		cold.ssWaitIdx = -1 // the store left the window
		return true
	}
	if c.w.state[si] == sDone ||
		(c.w.state[si] == sIssued && c.w.doneAt[si] != 0 && c.w.doneAt[si] <= c.now) {
		cold.ssWaitIdx = -1
		return true
	}
	return false
}

func (c *Core) issueStore(ri int) {
	c.activity = true
	cold := &c.w.cold[ri]
	cold.issueAt = c.now
	c.w.state[ri] = sIssued
	cold.addrKnownAt = c.now + 1
	c.w.doneAt[ri] = 0 // pending data; stageWriteback resolves
	c.w.flags[ri] &^= fInIQ
	c.iqCount--
	if c.trc != nil {
		c.trc.PipeEvent(EvIssue, c.now, &c.w.inst[ri], 0)
	}
	// If data is already available the store completes next cycle.
	if avail, ok := c.srcReady(ri, 1, c.now); ok {
		dr := cold.addrKnownAt
		if avail > dr {
			dr = avail
		}
		c.w.doneAt[ri] = dr
	}
	if c.w.doneAt[ri] != 0 {
		c.scheduleDone(ri)
	} else {
		c.pendStores = append(c.pendStores, schedRef{idx: int32(ri), seq: c.w.seq[ri]})
	}
	c.scanViolations(ri)
}

// scanViolations runs when a store's address resolves: any younger load
// that already obtained data without seeing this store is a memory-order
// violation (machine clear + store-sets training). Younger deferred loads
// re-link to this store if it is a better (younger) match.
func (c *Core) scanViolations(ri int) {
	stSeq := c.w.seq[ri]
	stAddr := c.w.inst[ri].Addr
	var flush flushReq
	// Walk only the in-window loads younger than the store, oldest first —
	// the same visit order the full window scan produced.
	for j := c.ldWin.searchSeq(stSeq + 1); j < c.ldWin.len(); j++ {
		li := int(c.ldWin.at(j).idx)
		if c.w.inst[li].Addr != stAddr {
			continue
		}
		switch c.w.state[li] {
		case sIssued, sDone:
			if c.w.cold[li].fwdFromSeq < stSeq {
				c.ss.Violation(c.w.inst[li].PC, c.w.inst[ri].PC)
				c.Stats.MemOrderFlushes++
				flush.request(c.distFromHead(li), true, c.cfg.MemFlushPenalty)
			}
		case sWaitStore:
			if lc := &c.w.cold[li]; lc.waitSeq < stSeq {
				lc.waitIdx = int32(ri)
				lc.waitSeq = stSeq
			}
		}
	}
	if flush.active {
		c.applyFlush(flush)
	}
}

func (c *Core) issueLoad(ri int) {
	c.activity = true
	cold := &c.w.cold[ri]
	cold.issueAt = c.now
	c.w.flags[ri] &^= fInIQ
	c.iqCount--
	ld := &c.w.inst[ri]
	if c.trc != nil {
		c.trc.PipeEvent(EvIssue, c.now, ld, 0)
	}

	// Search older stores youngest-first for a same-address match with a
	// resolved address; speculate past unresolved addresses (aggressive
	// disambiguation — the store-sets gate already ran). The store ring
	// holds exactly the in-window stores in program order, so the walk
	// touches only stores instead of every older window entry.
	for j := c.stWin.searchSeq(ld.Seq) - 1; j >= 0; j-- {
		si := int(c.stWin.at(j).idx)
		stCold := &c.w.cold[si]
		if c.w.state[si] == sWaiting || stCold.addrKnownAt == 0 || stCold.addrKnownAt > c.now {
			if c.cfg.ConservativeMemDisambiguation {
				// Conservative policy: an unresolved older store
				// blocks the load entirely.
				c.w.state[ri] = sWaitStore
				cold.waitIdx = int32(si)
				cold.waitSeq = c.w.seq[si]
				c.waiters = append(c.waiters, schedRef{idx: int32(ri), seq: ld.Seq})
				return
			}
			continue // address unknown: speculate past
		}
		if c.w.inst[si].Addr != ld.Addr {
			continue
		}
		// Conflicting older store found.
		if c.w.state[si] == sDone || (c.w.doneAt[si] != 0 && c.w.doneAt[si] <= c.now) {
			c.w.state[ri] = sIssued
			c.w.doneAt[ri] = c.now + c.cfg.ForwardLat
			cold.fwdFromSeq = c.w.seq[si]
			c.Stats.Forwards++
			c.pred.OnForward(ld.PC, c.w.inst[si].PC)
			c.scheduleDone(ri)
		} else {
			c.w.state[ri] = sWaitStore
			cold.waitIdx = int32(si)
			cold.waitSeq = c.w.seq[si]
			c.waiters = append(c.waiters, schedRef{idx: int32(ri), seq: ld.Seq})
		}
		return
	}
	done, lvl := c.hier.Load(c.now, ld.Addr, ld.PC, true)
	c.w.state[ri] = sIssued
	c.w.doneAt[ri] = done
	cold.lvl = lvl
	c.w.flags[ri] |= fIssuedToMem
	c.scheduleDone(ri)
}

// ----------------------------------------------------------------- rename

func (c *Core) stageRename() {
	// Per-cycle value-prediction bandwidth: the paper's Value Table
	// predicts up to LoadPorts loads per cycle (§IV-C).
	vpBudget := c.cfg.LoadPorts
	for n := 0; n < c.cfg.RenameWidth; n++ {
		if c.fqLen == 0 || c.fq[c.fqHead].readyAt > c.now {
			return
		}
		if c.count >= c.cfg.ROBSize || c.iqCount >= c.cfg.IQSize {
			return
		}
		fe := &c.fq[c.fqHead]
		if fe.d.Op.IsLoad() && c.lqCount >= c.cfg.LQSize {
			return
		}
		if fe.d.Op.IsStore() && c.sqCount >= c.cfg.SQSize {
			return
		}
		c.rename(fe, &vpBudget)
		if c.fqHead++; c.fqHead == len(c.fq) {
			c.fqHead = 0
		}
		c.fqLen--
	}
}

func (c *Core) rename(fe *fetchEnt, vpBudget *int) {
	c.activity = true
	slot := c.head + c.count
	if slot >= len(c.w.inst) {
		slot -= len(c.w.inst)
	}
	// Drop dependence subscriptions left by the slot's previous occupant
	// (only squashed entries leave any; completion already drains the list).
	c.deps[slot] = c.deps[slot][:0]

	c.w.reinit(slot, &fe.d, fe.histSnap)
	d := &c.w.inst[slot]
	cold := &c.w.cold[slot]

	// Source lookup through the RAT; parent PCs, the distinct nonzero
	// last-writer PCs of the sources, through RAT-PC. The parents are built
	// in locals and stored once.
	var parents [2]uint64
	nparents := 0
	for s, r := range [2]isa.Reg{d.Src1, d.Src2} {
		if r == isa.RegZero {
			continue
		}
		rp := c.regProd[r]
		if rp.hasProd && c.w.seq[rp.prodIdx] == rp.prodSeq {
			c.w.src[2*slot+s] = srcDep{prodIdx: rp.prodIdx, prodSeq: rp.prodSeq, hasProd: true}
		}
		if pc := c.regPC[r]; pc != 0 && (nparents == 0 || parents[0] != pc) {
			parents[nparents] = pc
			nparents++
		}
	}
	cold.parents = parents
	cold.nparents = uint8(nparents)

	// Memory-dependence prediction (store sets).
	switch {
	case d.Op.IsLoad():
		if waitSeq, ok := c.ss.DispatchLoad(d.PC); ok {
			if si, found := c.findStoreBySeq(waitSeq); found {
				cold.ssWaitIdx = si
				cold.ssWaitSeq = waitSeq
			}
		}
		c.lqCount++
		c.ldWin.pushBack(schedRef{idx: int32(slot), seq: d.Seq})
	case d.Op.IsStore():
		c.ss.DispatchStore(d.PC, d.Seq)
		c.sqCount++
		c.stWin.pushBack(schedRef{idx: int32(slot), seq: d.Seq})
	}

	// Value prediction lookup. Every instruction accesses the predictor
	// (stores deposit their identity in MR's Value File); accepting a
	// prediction is limited by the per-cycle budget.
	c.ctx.Hist = fe.histSnap
	c.ctx.Parents = parents
	c.ctx.NumParents = nparents
	p := c.pred.Lookup(d, &c.ctx)
	if p.Valid && *vpBudget > 0 {
		switch {
		case p.StoreLinked:
			if si, found := c.findStoreBySeq(p.StoreSeq); found {
				c.w.flags[slot] |= fPredicted
				cold.predValue = c.w.inst[si].Value
				c.w.pred[slot].link = si
				c.w.pred[slot].linkSeq = c.w.seq[si]
				*vpBudget--
			} else if p.DataReady {
				c.w.flags[slot] |= fPredicted
				cold.predValue = p.Value
				c.w.pred[slot].availAt = c.now
				*vpBudget--
			}
		default:
			c.w.flags[slot] |= fPredicted
			cold.predValue = p.Value
			c.w.pred[slot].availAt = c.now
			*vpBudget--
		}
	}

	// Mispredicting branch: remember its producers for the §VI-A3 signal.
	if fe.mispred {
		c.w.flags[slot] |= fBrMispredict
		c.Stats.BranchMispredicts++
		for k := 0; k < nparents; k++ {
			c.brChainInsert(parents[k])
		}
	}

	// RAT update.
	if d.HasDest() {
		c.regProd[d.Dst] = srcDep{prodIdx: int32(slot), prodSeq: d.Seq, hasProd: true}
		c.regPC[d.Dst] = d.PC
	}
	c.count++
	c.iqCount++
	if c.trc != nil {
		c.trc.PipeEvent(EvRename, c.now, d, 0)
		if c.w.flags[slot]&fPredicted != 0 {
			c.trc.PipeEvent(EvPredict, c.now, d, cold.predValue)
		}
	}
	// A new entry waits on an in-flight producer instead of trying to
	// issue next cycle: that attempt would fail while it is in flight,
	// and a failed attempt changes nothing.
	c.parkIssue(slot, d.Op.IsStore())
}

// findStoreBySeq locates an in-window store by sequence number (false when
// it already retired, never existed, or names a non-store). The store ring
// is seq-ordered, so a binary search replaces the window walk.
func (c *Core) findStoreBySeq(seq uint64) (int32, bool) {
	if pos := c.stWin.searchSeq(seq); pos < c.stWin.len() {
		if ref := c.stWin.at(pos); ref.seq == seq {
			return ref.idx, true
		}
	}
	return 0, false
}

// ------------------------------------------------------------------ fetch

func (c *Core) stageFetch() {
	if c.now < c.fetchStallUntil || c.redirectActive {
		return
	}
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.fqLen >= c.cfg.FetchBufferSize {
			return
		}
		fe := &c.fq[c.fqTail()]
		if !c.nextInst(fe) {
			return
		}
		// Any fetched micro-op is activity — including the I-cache-miss
		// path below, which keeps it in its slot as the holdover.
		c.activity = true
		// Instruction cache: charge a stall when fetch crosses into an
		// uncached line.
		line := fe.d.PC >> 6
		if line != c.lastFetchLine {
			done, _ := c.hier.Fetch(c.now, fe.d.PC, true)
			c.lastFetchLine = line
			if done > c.now {
				c.fetchStallUntil = done
				c.held = true
				return
			}
		}
		if !fe.replayed {
			if fe.d.Op.IsBranch() {
				fe.histSnap = c.bu.Hist.Bits(32)
				fe.mispred = !c.bu.PredictAndTrain(&fe.d)
			} else {
				fe.histSnap = c.bu.Hist.Bits(32)
			}
		}
		fe.readyAt = c.now + c.cfg.FrontEndDepth
		c.fqLen++
		c.Stats.Fetched++
		if c.trc != nil {
			c.trc.PipeEvent(EvFetch, c.now, &fe.d, 0)
		}
		if fe.mispred {
			// Fetch stops behind the mispredicted branch until it
			// resolves.
			c.redirectActive = true
			c.redirectSeq = fe.d.Seq
			return
		}
	}
}

// fqTail returns the fetch-buffer slot after the buffered micro-ops.
func (c *Core) fqTail() int {
	t := c.fqHead + c.fqLen
	if t >= len(c.fq) {
		t -= len(c.fq)
	}
	return t
}

// nextInst puts the next micro-op in program order into fe, the tail slot
// of the fetch buffer: the I-cache-stalled holdover already there, then the
// flush-replay queue, then the instruction source. It reports false when
// there is none.
func (c *Core) nextInst(fe *fetchEnt) bool {
	if c.held {
		c.held = false
		return true
	}
	if c.rpHead < len(c.replay) {
		*fe = c.replay[c.rpHead]
		c.rpHead++
		if c.rpHead == len(c.replay) {
			c.replay = c.replay[:0]
			c.rpHead = 0
		}
		return true
	}
	if c.srcDone {
		return false
	}
	*fe = fetchEnt{}
	if !c.src.Next(&fe.d) {
		c.srcDone = true
		return false
	}
	return true
}

// ------------------------------------------------------------------ flush

// applyFlush squashes the window from the request point, queues the
// squashed micro-ops (plus everything in the front end) for replay, repairs
// the RAT images and charges the refetch penalty.
func (c *Core) applyFlush(f flushReq) {
	c.activity = true
	start := f.dist
	if !f.inclusive {
		start++
	}
	if start >= c.count {
		// Nothing younger in the window; still clear the front end and
		// charge the penalty.
		start = c.count
	}
	if c.trc != nil {
		var first *isa.DynInst
		if start < c.count {
			first = &c.w.inst[c.idx(start)]
		}
		c.trc.PipeEvent(EvFlush, c.now, first, uint64(c.count-start))
	}

	// Truncate the load/store rings to the surviving window. The boundary
	// seq must be captured before the squash loop invalidates slot seqs.
	if start < c.count {
		bseq := c.w.seq[c.idx(start)]
		for c.ldWin.len() > 0 && c.ldWin.at(c.ldWin.len()-1).seq >= bseq {
			c.ldWin.popBack()
		}
		for c.stWin.len() > 0 && c.stWin.at(c.stWin.len()-1).seq >= bseq {
			c.stWin.popBack()
		}
	}

	squashed := c.squashBuf[:0]
	for j := start; j < c.count; j++ {
		ri := c.idx(j)
		squashed = append(squashed, fetchEnt{
			d:        c.w.inst[ri],
			mispred:  c.w.flags[ri]&fBrMispredict != 0,
			histSnap: c.w.cold[ri].histSnap,
			replayed: true,
		})
		switch op := c.w.inst[ri].Op; {
		case op.IsLoad():
			c.lqCount--
		case op.IsStore():
			c.sqCount--
		}
		if c.w.flags[ri]&fInIQ != 0 {
			c.iqCount--
		}
		// Invalidate the slot so stale prodIdx references miscompare.
		c.w.seq[ri] = ^uint64(0)
		c.w.inst[ri].Seq = ^uint64(0)
		c.w.state[ri] = sDone
	}
	c.count = start

	for i, fi := 0, c.fqHead; i < c.fqLen; i++ {
		squashed = append(squashed, c.fq[fi])
		squashed[len(squashed)-1].replayed = true
		if fi++; fi == len(c.fq) {
			fi = 0
		}
	}
	if c.held {
		// The I-cache holdover was never predicted or renamed; it goes
		// back as a fresh fetch.
		squashed = append(squashed, c.fq[c.fqTail()])
		c.held = false
	}
	c.fqHead = 0
	c.fqLen = 0
	// Prepend by swapping buffers: the unread replay tail moves behind the
	// squashed micro-ops, and the old replay array becomes the next
	// flush's scratch space.
	squashed = append(squashed, c.replay[c.rpHead:]...)
	c.squashBuf = c.replay[:0]
	c.replay = squashed
	c.rpHead = 0

	// Rebuild speculative RAT/RAT-PC from the retired images plus the
	// surviving window.
	for r := range c.regProd {
		c.regProd[r] = srcDep{}
		c.regPC[r] = c.retRegPC[r]
	}
	for j := 0; j < c.count; j++ {
		ri := c.idx(j)
		d := &c.w.inst[ri]
		if d.HasDest() {
			c.regProd[d.Dst] = srcDep{prodIdx: int32(ri), prodSeq: d.Seq, hasProd: true}
			c.regPC[d.Dst] = d.PC
		}
	}

	// A redirect pending on a squashed branch is re-established when the
	// branch is refetched.
	if c.redirectActive {
		found := false
		for j := 0; j < c.count; j++ {
			if c.w.seq[c.idx(j)] == c.redirectSeq {
				found = true
				break
			}
		}
		if !found {
			c.redirectActive = false
		}
	}

	c.ss.Flush()
	c.pred.OnFlush()
	c.lastFetchLine = ^uint64(0)
	if resume := c.now + f.penalty; resume > c.fetchStallUntil {
		c.fetchStallUntil = resume
	}
}
