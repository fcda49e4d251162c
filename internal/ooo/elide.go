package ooo

// Idle-cycle elision: the cycle loop's clock jump over provably-empty
// cycles.
//
// Memory-bound workloads spend long stretches with the window stalled
// behind a DRAM miss at the ROB head — hundreds of consecutive loop
// iterations in which no stage can change machine state. The event-driven
// scheduler (sched.go) already knows when the next interesting cycle is:
// every in-flight completion sits in the done heap, and the only other
// time-driven wake-ups are the fetch-stall resume cycle, the fetch-queue
// head's rename-ready cycle, and the observer's next sample boundary.
// When a cycle ends having done nothing, the loop jumps the clock to one
// cycle before the earliest of those horizons and bulk-accounts the
// skipped cycles into the same stall counters the ticking loop would have
// incremented one at a time.
//
// The jump is legal only when the cycle was provably inert, which the
// core tracks with a single per-cycle `activity` flag plus the ready
// queue's emptiness:
//
//   - activity is set by retirement, completion (complete), scheduling a
//     completion (scheduleDone), arming an entry for issue (armIssue),
//     any issue (issueLoad/issueStore/the ALU path), rename, a fetched
//     micro-op, and a window flush (applyFlush). If any of those happened
//     this cycle, the next cycle may react to it — tick normally.
//   - the ready queue must be empty: port-blocked or store-set-gated
//     entries "stay armed" and are legitimately re-examined every cycle
//     (their per-cycle ready() re-check records criticality state the
//     oracle walk reads), so a non-empty queue always ticks.
//
// Under those two conditions every remaining per-cycle poll is provably
// inert until the horizon: pending stores resolve only when their data
// producer's completion pops from the done heap; deferred loads release
// only on a store's completion (heap), a store's address resolution (the
// cycle after the store issues — an activity cycle), or the store's
// retirement (an activity cycle); and fetch/rename stay blocked until the
// fetch-stall or fetch-queue horizon, or an activity event frees a
// structural resource. What may never be skipped over, and never is:
//
//   - flush requests — flushes happen inside stages, which only run on
//     ticked cycles, and every flush marks activity;
//   - retire-window progress — a retirable head means its completion
//     marked activity this cycle or retirement did last cycle;
//   - observer boundaries — the horizon clamps to nextSample, so interval
//     samples fire on exactly the cycle they would have, with identical
//     bulk-accounted counters.
//
// The result is enforced byte-identical to the ticking loop by the
// golden-stat matrix, which runs every cell on both paths, and
// TestElisionTickEquivalence; Config.DisableIdleElision forces the
// ticking path.

// nextEventHorizon returns the earliest future cycle at which the machine
// can next change state (or must be observed), and whether any such bound
// exists. Called only at the end of an inert cycle, so the done heap's
// head — if any — is strictly in the future (stageWriteback popped
// everything due this cycle).
func (c *Core) nextEventHorizon() (uint64, bool) {
	h := ^uint64(0)
	if len(c.done) > 0 {
		h = c.done.next()
	}
	if c.fetchStallUntil > c.now && c.fetchStallUntil < h {
		h = c.fetchStallUntil
	}
	if c.fqLen > 0 {
		if ra := c.fq[c.fqHead].readyAt; ra > c.now && ra < h {
			h = ra
		}
	}
	// Never jump across a sample boundary: the observer must see the
	// machine at exactly its interval cycle. nextSample is ^0 when no
	// observer is attached, so this clamp never binds then.
	if c.nextSample < h {
		h = c.nextSample
	}
	if h == ^uint64(0) {
		// No bound: a machine with nothing in flight and nothing fetchable
		// either terminates at the loop's drain check or spins — the
		// ticking loop's behavior, which elision must not change.
		return 0, false
	}
	return h, true
}

// elideIdle clock-jumps an inert machine to the cycle before the next
// event horizon, bulk-accounting the skipped cycles exactly as the ticking
// loop would have: the head's stall classification is frozen (nothing can
// change it during an inert stretch — classifyStall reads only head state
// the stages would have to tick to modify), so k skipped cycles add k to
// the same counters k ticked iterations would have. The loop's next
// iteration then ticks into the horizon cycle itself and runs all stages
// normally.
func (c *Core) elideIdle() {
	h, ok := c.nextEventHorizon()
	if !ok || h <= c.now+1 {
		return
	}
	k := h - c.now - 1
	c.now += k
	c.Stats.Cycles += k
	c.Stats.SkippedCycles += k
	c.Stats.SkipEvents++
	if c.count == 0 {
		c.Stats.EmptyWindowCycles += k
		c.Stats.Breakdown[CycFrontend] += k
		return
	}
	hd := c.head
	c.Stats.RetireStallCycles += k
	if c.w.inst[hd].Op.IsLoad() {
		c.Stats.StallHeadLoads += k
	} else {
		c.Stats.StallHeadOther += k
	}
	c.Stats.Breakdown[c.classifyStall(hd)] += k
	// No oracleWalk here: the ticking loop walks once per new stall-head
	// seq, and this head already stalled (and walked) on the cycle that
	// preceded the jump — lastStallSeq == the head's seq.
}
