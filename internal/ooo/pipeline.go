package ooo

import (
	"context"

	"fvp/internal/isa"
	"fvp/internal/memsys"
	"fvp/internal/vp"
)

// cancelCheckMask gates how often RunCtx polls the context: every
// (cancelCheckMask+1) cycles. 4096 cycles is ~µs of wall time, far below
// any caller-visible deadline, while keeping the poll off the hot path.
const cancelCheckMask = 4095

// Run simulates until the total retired-instruction count reaches
// maxRetired (or the source is exhausted) and returns the cumulative run
// statistics. Run may be called repeatedly with growing targets — the
// warmup/measure protocol snapshots Stats between calls.
func (c *Core) Run(maxRetired uint64) RunStats {
	st, _ := c.RunCtx(context.Background(), maxRetired)
	return st
}

// RunCtx is Run with cooperative cancellation: the cycle loop polls ctx
// every few thousand simulated cycles and returns early with ctx.Err()
// when it fires, leaving Stats at the point of interruption. This is what
// lets a service-side job honor per-request deadlines and graceful
// shutdown without killing the worker goroutine.
func (c *Core) RunCtx(ctx context.Context, maxRetired uint64) (RunStats, error) {
	done := ctx.Done()
	// The cancel poll counts loop iterations, not cycles: with idle-cycle
	// elision one iteration can cover thousands of cycles, so a cycle-based
	// gate would poll too rarely on jump-heavy runs (and Cycles&mask==0
	// would additionally skew with the jump lengths).
	var iter uint64
	for c.Stats.Retired < maxRetired {
		if done != nil && iter&cancelCheckMask == 0 {
			select {
			case <-done:
				return c.Stats, ctx.Err()
			default:
			}
		}
		iter++
		c.now++
		c.Stats.Cycles++
		c.activity = false
		c.stageRetire()
		c.stageWriteback()
		c.stageIssue()
		c.stageRename()
		c.stageFetch()
		if c.Stats.Cycles >= c.nextSample {
			c.sample()
		}
		if c.srcDone && c.count == 0 && c.fqLen == 0 && !c.held &&
			len(c.replay)-c.rpHead == 0 {
			break
		}
		// Inert cycle and nothing armed for issue: jump the clock to the
		// next event horizon (bit-exact; see elide.go).
		if c.elide && !c.activity && len(c.readyQ) == 0 {
			c.elideIdle()
		}
	}
	return c.Stats, nil
}

// classOf maps an op to its issue-port class.
func classOf(op isa.Op) int {
	switch op {
	case isa.OpALU:
		return classALU
	case isa.OpIMul:
		return classIMul
	case isa.OpIDiv:
		return classIDiv
	case isa.OpFP:
		return classFP
	case isa.OpFPDiv:
		return classFPDiv
	case isa.OpLoad:
		return classLoad
	case isa.OpStore:
		return classStore
	case isa.OpBranch, isa.OpJump, isa.OpCall, isa.OpRet, isa.OpIndirect:
		return classBranch
	default:
		return classNop
	}
}

// ---------------------------------------------------------------- retire

func (c *Core) stageRetire() {
	retired := 0
	for retired < c.cfg.RetireWidth && c.count > 0 {
		h := c.head
		if c.w.state[h] != sDone || c.w.doneAt[h] > c.now {
			break
		}
		c.commit(h)
		if c.head++; c.head == len(c.w.inst) {
			c.head = 0
		}
		c.count--
		retired++
	}
	if retired > 0 {
		c.activity = true
		c.Stats.Breakdown[CycRetiring]++
		return
	}
	if c.count == 0 {
		c.Stats.EmptyWindowCycles++
		c.Stats.Breakdown[CycFrontend]++
		return
	}
	c.Stats.RetireStallCycles++
	h := c.head
	if c.w.inst[h].Op.IsLoad() {
		c.Stats.StallHeadLoads++
	} else {
		c.Stats.StallHeadOther++
	}
	c.Stats.Breakdown[c.classifyStall(h)]++
	if c.w.seq[h] != c.lastStallSeq {
		c.lastStallSeq = c.w.seq[h]
		c.oracleWalk()
	}
}

// classifyStall attributes a retirement-stall cycle to slot i's blocker.
func (c *Core) classifyStall(i int) int {
	switch c.w.state[i] {
	case sWaitStore:
		return CycStoreFwd
	case sIssued, sDone:
		isLoad := c.w.inst[i].Op.IsLoad()
		if isLoad && c.w.flags[i]&fIssuedToMem != 0 {
			switch c.w.cold[i].lvl {
			case memsys.LvlL1:
				return CycMemL1
			case memsys.LvlL2:
				return CycMemL2
			case memsys.LvlLLC:
				return CycMemLLC
			default:
				return CycMemDRAM
			}
		}
		if isLoad {
			return CycStoreFwd
		}
		return CycExec
	default:
		return CycDependency
	}
}

func (c *Core) commit(i int) {
	d := &c.w.inst[i]
	fl := c.w.flags[i]
	if c.trc != nil {
		c.trc.PipeEvent(EvRetire, c.now, d, 0)
	}
	c.Stats.Retired++
	c.Meter.Insts++
	switch {
	case d.Op.IsLoad():
		c.Stats.RetiredLoads++
		c.Meter.Loads++
		if fl&fPredicted != 0 {
			c.Meter.PredictedLoads++
		}
		if fl&fIssuedToMem != 0 {
			c.Stats.LoadsByLevel[c.w.cold[i].lvl]++
		} else {
			c.Stats.LoadsByLevel[memsys.LvlL1]++
		}
		c.lqCount--
		c.ldWin.popFront()
	case d.Op.IsStore():
		c.Stats.RetiredStores++
		c.shadow.Write(d.Addr, d.Value)
		c.hier.Store(c.now, d.Addr, true)
		c.ss.CompleteStore(d.PC, d.Seq)
		c.sqCount--
		c.stWin.popFront()
	default:
		if fl&fPredicted != 0 {
			c.Meter.PredictedOther++
		}
	}
	if d.HasDest() {
		c.retRegPC[d.Dst] = d.PC
	}
	c.pred.OnRetire(d)
	c.retiredCount++
	if c.retiredCount%oracleEpoch == 0 {
		clear16(c.oracleSet)
		clear16(c.brChain)
	}
}

// oracleEpoch matches the CIT criticality epoch so the oracle table follows
// the same phase cadence.
const oracleEpoch = 400_000

func clear16(t []uint16) {
	for i := range t {
		t[i] = 0
	}
}

func pcTag16(pc uint64) uint16 {
	t := uint16(pc>>2) ^ uint16(pc>>18)
	if t == 0 {
		t = 1
	}
	return t
}

func (c *Core) oracleInsert(pc uint64) { c.oracleSet[(pc>>2)&c.oracleMask] = pcTag16(pc) }

func (c *Core) oracleHit(pc uint64) bool {
	return c.oracleSet[(pc>>2)&c.oracleMask] == pcTag16(pc)
}

func (c *Core) brChainInsert(pc uint64) { c.brChain[(pc>>2)&c.brChainMask] = pcTag16(pc) }

func (c *Core) brChainHit(pc uint64) bool {
	return c.brChain[(pc>>2)&c.brChainMask] == pcTag16(pc)
}

// oracleWalk marks the PCs of the last-arriving dependence chain rooted at
// the stalled head — the graph-buffering oracle of §VI-C: a DDG backward
// walk from the retirement bottleneck.
func (c *Core) oracleWalk() {
	i := c.head
	for step := 0; step < 64; step++ {
		c.oracleInsert(c.w.inst[i].PC)
		next := -1
		// Prefer a still-blocking producer; otherwise the recorded
		// last-arriving one.
		for s := 0; s < 2; s++ {
			d := &c.w.src[2*i+s]
			if !d.hasProd {
				continue
			}
			pi := int(d.prodIdx)
			if c.w.seq[pi] != d.prodSeq {
				continue
			}
			if avail, ok := c.destAvail(pi); !ok || avail > c.now {
				next = pi
				break
			}
		}
		if next < 0 {
			if cold := &c.w.cold[i]; cold.crit >= 0 && c.w.seq[cold.crit] == cold.critSeq {
				next = int(cold.crit)
			}
		}
		if next < 0 || next == i {
			return
		}
		i = next
	}
}

// ------------------------------------------------------------- writeback

// flushReq records the oldest squash demanded this cycle.
type flushReq struct {
	active    bool
	dist      int // distance from head of the faulting entry
	inclusive bool
	penalty   uint64
}

func (f *flushReq) request(dist int, inclusive bool, penalty uint64) {
	if !f.active || dist < f.dist {
		*f = flushReq{active: true, dist: dist, inclusive: inclusive, penalty: penalty}
	}
}

// stageWriteback used to scan the whole window; it now examines only the
// entries that can change state this cycle: completions whose scheduled
// doneAt is due (popped from the done heap), issued stores still awaiting
// their data operand, and loads deferred behind an older store. Candidates
// are processed oldest-first so same-cycle completions happen in the exact
// order the full scan produced (predictor training is order-sensitive), and
// cascades inside one cycle (producer completes -> pending store resolves ->
// deferred load forwards) resolve because producers always sort earlier than
// their in-window consumers.
func (c *Core) stageWriteback() {
	var flush flushReq
	cand := c.wbCand[:0]
	for len(c.done) > 0 && c.done.next() <= c.now {
		k := c.done.pop()
		ei := int(k & (1<<slotBits - 1))
		// Drop keys whose slot was squashed or re-issued with a different
		// completion time since the key was pushed. A key left by a
		// squashed occupant can pass when the new occupant completes in
		// the same cycle; it then duplicates that occupant's own candidate,
		// which finds the slot sDone and does nothing (see doneKey).
		if c.w.state[ei] == sIssued && c.w.doneAt[ei] == k>>slotBits {
			cand = append(cand, schedRef{idx: int32(ei), seq: c.w.seq[ei]})
		}
	}
	cand = append(cand, c.pendStores...)
	c.pendStores = c.pendStores[:0]
	cand = append(cand, c.waiters...)
	c.waiters = c.waiters[:0]
	if len(cand) == 0 {
		c.wbCand = cand
		return
	}
	sortWindowOrder(cand)
	for _, ref := range cand {
		ri := int(ref.idx)
		if c.w.seq[ri] != ref.seq {
			continue // squashed since the ref was taken
		}
		switch c.w.state[ri] {
		case sIssued:
			if c.w.doneAt[ri] == 0 && c.w.inst[ri].Op.IsStore() {
				// Address resolved; waiting for store data.
				if avail, ok := c.srcReady(ri, 1, c.now); ok {
					dr := c.w.cold[ri].addrKnownAt
					if avail > dr {
						dr = avail
					}
					if c.now > dr {
						dr = c.now
					}
					c.w.doneAt[ri] = dr
				}
			}
			switch da := c.w.doneAt[ri]; {
			case da != 0 && da <= c.now:
				c.complete(ri, &flush)
			case da == 0:
				c.pendStores = append(c.pendStores, ref)
			default:
				c.scheduleDone(ri)
			}
		case sWaitStore:
			c.retryWaitStore(ri)
			switch {
			case c.w.state[ri] == sIssued && c.w.doneAt[ri] != 0 && c.w.doneAt[ri] <= c.now:
				c.complete(ri, &flush)
			case c.w.state[ri] == sIssued:
				c.scheduleDone(ri)
			case c.w.state[ri] == sWaiting:
				// Released by address disambiguation: eligible for
				// this cycle's issue stage, like the full scan.
				c.armIssue(ri)
			default:
				c.waiters = append(c.waiters, ref)
			}
		}
	}
	c.wbCand = cand[:0]
	if flush.active {
		c.applyFlush(flush)
	}
}

// retryWaitStore advances a load that deferred on an older store's data.
func (c *Core) retryWaitStore(ri int) {
	cold := &c.w.cold[ri]
	si := int(cold.waitIdx)
	if c.w.seq[si] != cold.waitSeq {
		// The store retired: its data is in the cache by now.
		done, lvl := c.hier.Load(c.now, c.w.inst[ri].Addr, c.w.inst[ri].PC, true)
		c.w.state[ri] = sIssued
		c.w.doneAt[ri] = done
		cold.lvl = lvl
		c.w.flags[ri] |= fIssuedToMem
		return
	}
	stCold := &c.w.cold[si]
	if stCold.addrKnownAt != 0 && stCold.addrKnownAt <= c.now && c.w.inst[si].Addr != c.w.inst[ri].Addr {
		// The load was parked behind an unresolved store (conservative
		// disambiguation) that turned out not to alias: release it back
		// to the scheduler as soon as the address disambiguates.
		c.w.state[ri] = sWaiting
		c.w.flags[ri] |= fInIQ
		c.iqCount++
		return
	}
	if stDone := c.w.doneAt[si]; stDone != 0 && stDone <= c.now {
		start := stDone
		if c.now > start {
			start = c.now
		}
		c.w.state[ri] = sIssued
		c.w.doneAt[ri] = start + c.cfg.ForwardLat
		cold.fwdFromSeq = c.w.seq[si]
		c.Stats.Forwards++
		c.pred.OnForward(c.w.inst[ri].PC, c.w.inst[si].PC)
	}
}

// complete finishes execution of slot ri: validation, training, branch
// resolution.
func (c *Core) complete(ri int, flush *flushReq) {
	c.activity = true
	c.w.state[ri] = sDone
	d := &c.w.inst[ri]
	cold := &c.w.cold[ri]
	if c.trc != nil {
		c.trc.PipeEvent(EvComplete, c.w.doneAt[ri], d, 0)
	}
	dist := c.distFromHead(ri)
	nearHead := dist < c.cfg.RetireWidth

	info := vp.TrainInfo{NearHead: nearHead}
	fl := c.w.flags[ri]
	if d.Op.IsLoad() {
		info.Forwarded = cold.fwdFromSeq != 0
		if fl&fIssuedToMem != 0 {
			info.L1Miss = cold.lvl > memsys.LvlL1
			info.LLCMiss = cold.lvl == memsys.LvlMem
		}
	}
	info.OracleCritical = c.oracleHit(d.PC)
	info.MispredictedBranchChain = c.brChainHit(d.PC)

	if fl&(fPredicted|fValidated) == fPredicted {
		c.w.flags[ri] = fl | fValidated
		correct := cold.predValue == d.Value
		info.WasPredicted = true
		info.Correct = correct
		if c.trc != nil {
			ev := EvVPWrong
			if correct {
				ev = EvVPCorrect
			}
			c.trc.PipeEvent(ev, c.now, d, cold.predValue)
		}
		if correct {
			c.Meter.Correct++
		} else {
			c.Meter.Wrong++
			c.Meter.Flushes++
			c.Stats.VPFlushes++
			flush.request(dist, false, c.cfg.VPMispredictPenalty)
		}
	}

	c.ctx.Hist = cold.histSnap
	c.ctx.Parents = cold.parents
	c.ctx.NumParents = int(cold.nparents)
	c.pred.Train(d, &c.ctx, info)

	if d.Op.IsStore() {
		c.ss.CompleteStore(d.PC, d.Seq)
	}
	if fl&fBrMispredict != 0 && c.redirectActive && c.redirectSeq == d.Seq {
		c.redirectActive = false
		resume := c.w.doneAt[ri] + c.cfg.BranchMispredictPenalty
		if resume > c.fetchStallUntil {
			c.fetchStallUntil = resume
		}
	}
	c.wakeDependents(ri)
}
