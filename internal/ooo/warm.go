package ooo

import (
	"fvp/internal/isa"
	"fvp/internal/memsys"
	"fvp/internal/vp"
)

// Functional warmup: train the machine's predictive state — caches,
// prefetchers, branch predictor, memory-dependence tables, value tables —
// directly from the architectural instruction stream, without a ROB, issue
// queue or scheduler. Cost is O(instructions) instead of O(cycles), which
// is what makes paper-scale warmup and region-parallel simulation cheap
// (see ISSUE 5 / DESIGN.md "Fast-forward warmup").
//
// Fidelity model: the structures that matter for a warmed measured region
// are trained *identically* to a detailed run where the detailed run is
// itself architectural — the branch unit (PredictAndTrain is in-order at
// fetch on the correct path), the retired-memory shadow, and the value
// tables' in-order train stream. Timing-born signals (cache access
// interleaving, NearHead criticality, store→load forwarding) are
// approximated with a constant-work dataflow clock per instruction; the
// warming-fidelity CI gate holds the resulting measured-region IPC within
// 1% of detailed warmup (geomean over the golden matrix).

// warmFwdEntries sizes the direct-mapped recent-store table the warmer
// uses to detect store→load forwarding functionally: a load whose address
// was stored within the last ROB's worth of instructions would have
// received its data through the LSQ in a detailed run.
const warmFwdEntries = 512

type warmFwdEnt struct {
	addr  uint64
	seq   uint64
	pc    uint64
	valid bool
}

// WarmFunctional consumes up to insts instructions from the core's source
// and feeds them to the warming taps. It leaves Stats and Meter untouched
// (the measured region starts from clean counters) but advances the
// machine's pseudo-clock so cache line fill times, DRAM bank state and the
// measured region's cycle numbering stay on one consistent timescale, as
// they would after a detailed warmup. It returns the number of
// instructions actually warmed (less than insts only when the source ran
// dry, which also marks the source done for the subsequent run).
func (c *Core) WarmFunctional(insts uint64) uint64 {
	if insts == 0 {
		return 0
	}
	// The baseline predictor consumes nothing: no Ctx, no TrainInfo, no
	// criticality tables (the detailed pipeline rebuilds oracle/branch-chain
	// state itself during measurement and only predictors read it). Skip
	// that bookkeeping wholesale — the dataflow clock, cache/branch/memdep
	// warming and the shadow memory are unaffected.
	_, minimal := c.pred.(vp.None)

	// Dataflow clock: regReady[r] is the pseudo-cycle register r's value
	// is available; frontier is how far in-order retirement has advanced;
	// nextFetch paces the front end at FetchWidth per cycle, bounded by
	// ROB occupancy (instruction i cannot fetch before instruction
	// i-ROBSize retired) — doneRing carries those retirement times.
	var regReady [isa.NumArchRegs]uint64
	var fwd [warmFwdEntries]warmFwdEnt
	doneRing := make([]uint64, c.cfg.ROBSize)
	ringIdx := 0 // wrapping cursor into doneRing (ROBSize isn't a power of 2)
	nextFetch := c.now
	frontier := c.now
	fetchCnt, retireCnt := 0, 0
	// Hot loop: keep the per-instruction constants and the fetch-line
	// cursor in locals (the interface calls below otherwise pin them to
	// memory every iteration).
	fetchWidth := c.cfg.FetchWidth
	feDepth := c.cfg.FrontEndDepth
	retireWidth := c.cfg.RetireWidth
	fwdLat := c.cfg.ForwardLat
	robSize := uint64(c.cfg.ROBSize)
	brPenalty := c.cfg.BranchMispredictPenalty
	lastLine := c.lastFetchLine

	var d isa.DynInst
	var n uint64
	for n = 0; n < insts; n++ {
		if !c.src.Next(&d) {
			c.srcDone = true
			break
		}

		// Front-end pacing + I-cache.
		if occ := doneRing[ringIdx]; occ > nextFetch {
			nextFetch = occ // ROB-full backpressure
		}
		if fetchCnt++; fetchCnt >= fetchWidth {
			nextFetch++
			fetchCnt = 0
		}
		if line := d.PC >> 6; line != lastLine {
			lastLine = line
			if done, _ := c.hier.WarmFetch(nextFetch, d.PC); done > nextFetch {
				nextFetch = done
			}
		}

		// Branch unit: identical training to detailed fetch.
		var histSnap uint64
		if !minimal {
			histSnap = c.bu.Hist.Bits(32)
		}
		mispred := false
		if d.Op.IsBranch() {
			mispred = c.bu.Warm(&d)
		}

		// Parent PCs through the architectural RAT-PC; source readiness
		// through the dataflow clock. critParent tracks the last-arriving
		// producer — the one the detailed oracle walk would follow.
		dispatchAt := nextFetch + feDepth
		start := dispatchAt
		var parents [2]uint64
		nparents := 0
		var critParent uint64
		if r := d.Src1; r != isa.RegZero {
			if t := regReady[r]; t > start {
				start = t
				critParent = c.regPC[r]
			}
			if pc := c.regPC[r]; pc != 0 {
				parents[0] = pc
				nparents = 1
			}
		}
		if r := d.Src2; r != isa.RegZero {
			if t := regReady[r]; t > start {
				start = t
				critParent = c.regPC[r]
			}
			if pc := c.regPC[r]; pc != 0 && (nparents == 0 || parents[0] != pc) {
				parents[nparents] = pc
				nparents++
			}
		}

		// Execute on the warming taps.
		info := vp.TrainInfo{}
		var done uint64
		switch {
		case d.Op.IsLoad():
			c.ss.WarmLoad(d.PC)
			slot := &fwd[(d.Addr>>3)%warmFwdEntries]
			if slot.valid && slot.addr == d.Addr && d.Seq-slot.seq <= robSize {
				// Would have forwarded from an in-flight store.
				done = start + fwdLat
				info.Forwarded = true
				c.pred.OnForward(d.PC, slot.pc)
			} else {
				var lvl memsys.Level
				done, lvl = c.hier.WarmLoad(start, d.Addr, d.PC)
				info.L1Miss = lvl > memsys.LvlL1
				info.LLCMiss = lvl == memsys.LvlMem
			}
		case d.Op.IsStore():
			c.ss.WarmStore(d.PC, d.Seq)
			done = start + 1
			fwd[(d.Addr>>3)%warmFwdEntries] = warmFwdEnt{
				addr: d.Addr, seq: d.Seq, pc: d.PC, valid: true,
			}
			c.shadow.Write(d.Addr, d.Value)
			c.hier.WarmStore(done, d.Addr)
		default:
			done = start + c.cfg.latencyFor(classOf(d.Op))
		}

		// Criticality signals from the dataflow clock: an instruction
		// completing past the retirement frontier is the head blocker a
		// detailed run would see stalling retirement (NearHead), and its
		// dependence roots seed the oracle table like a stall walk does.
		if !minimal {
			stalls := done > frontier
			info.NearHead = stalls
			info.OracleCritical = c.oracleHit(d.PC)
			info.MispredictedBranchChain = c.brChainHit(d.PC)
			if stalls {
				c.oracleInsert(d.PC)
				if critParent != 0 {
					c.oracleInsert(critParent)
				}
			}
			if mispred {
				for k := 0; k < nparents; k++ {
					c.brChainInsert(parents[k])
				}
			}
		}

		// Value tables: the full in-order call protocol — Lookup (stores
		// deposit MR identities), Train, OnRetire.
		if !minimal {
			c.ctx.Hist = histSnap
			c.ctx.Parents = parents
			c.ctx.NumParents = nparents
			p := c.pred.Lookup(&d, &c.ctx)
			if p.Valid {
				info.WasPredicted = true
				switch {
				case !p.StoreLinked:
					info.Correct = p.Value == d.Value
				case p.DataReady:
					info.Correct = p.Value == d.Value
				default:
					// Linked to an in-flight store: the LSQ would have
					// delivered that store's data, correct when the link
					// names the store this address last saw.
					slot := &fwd[(d.Addr>>3)%warmFwdEntries]
					info.Correct = slot.valid && slot.addr == d.Addr && slot.seq == p.StoreSeq
				}
			}
			c.pred.Train(&d, &c.ctx, info)
			c.pred.OnRetire(&d)
		}

		// Retire: architectural RAT-PC images, dataflow writeback, the
		// retirement frontier and the branch-redirect estimate.
		if d.HasDest() {
			c.regPC[d.Dst] = d.PC
			c.retRegPC[d.Dst] = d.PC
			regReady[d.Dst] = done
		}
		if retireCnt++; retireCnt >= retireWidth {
			frontier++
			retireCnt = 0
		}
		if done > frontier {
			frontier = done
		}
		doneRing[ringIdx] = frontier
		if ringIdx++; ringIdx == len(doneRing) {
			ringIdx = 0
		}
		if mispred {
			if resume := done + brPenalty; resume > nextFetch {
				nextFetch = resume
			}
		}
	}

	c.lastFetchLine = lastLine
	if frontier > c.now {
		c.now = frontier
	}
	return n
}
