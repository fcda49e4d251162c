// Package branch implements the front-end control-flow predictors of the
// simulated core: a TAGE conditional-direction predictor, an ITTAGE indirect
// target predictor and a return-address stack, all driven from a shared
// global history register.
//
// The global history register matters beyond branch prediction: FVP's
// context value predictor keys on "the outcome of the last 32 branches"
// (paper §IV-C), and the paper's argument for ignoring mispredicting-branch
// chains (§IV-A2) is precisely that value prediction and branch prediction
// share this history. Exposing one GlobalHistory implementation to both
// subsystems keeps that coupling honest.
package branch

// GlobalHistory is a shift register of conditional-branch outcomes plus a
// path history of branch PCs.
type GlobalHistory struct {
	// bits holds the outcome history, most recent outcome in bit 0.
	bits uint64
	// path holds a folded path history of recent branch PCs.
	path uint64
}

// Push records the outcome of one conditional branch at pc.
func (g *GlobalHistory) Push(pc uint64, taken bool) {
	g.bits <<= 1
	if taken {
		g.bits |= 1
	}
	g.path = g.path<<3 ^ (pc >> 2)
}

// Bits returns the low n bits of outcome history (n ≤ 64).
func (g *GlobalHistory) Bits(n uint) uint64 {
	if n >= 64 {
		return g.bits
	}
	return g.bits & (1<<n - 1)
}

// Path returns the folded path history.
func (g *GlobalHistory) Path() uint64 { return g.path }

// Fold compresses the low histLen bits of history into outBits bits by
// XOR-folding, the standard TAGE index/tag hashing step.
func (g *GlobalHistory) Fold(histLen, outBits uint) uint64 {
	if outBits == 0 {
		return 0
	}
	h := g.Bits(histLen)
	var folded uint64
	for h != 0 {
		folded ^= h & (1<<outBits - 1)
		h >>= outBits
	}
	return folded
}

// RAS is a fixed-depth return-address stack with wrap-around, matching the
// behaviour of hardware RAS structures (overflow silently overwrites the
// oldest entry; underflow predicts garbage, which shows up as a mispredict).
type RAS struct {
	entries []uint64
	top     int
	depth   int
}

// NewRAS returns a stack with the given number of entries.
func NewRAS(entries int) *RAS {
	if entries <= 0 {
		entries = 16
	}
	return &RAS{entries: make([]uint64, entries)}
}

// Reset empties the stack without reallocating it.
func (r *RAS) Reset() {
	for i := range r.entries {
		r.entries[i] = 0
	}
	r.top = 0
	r.depth = 0
}

// Push records a return address on a call.
func (r *RAS) Push(addr uint64) {
	r.entries[r.top] = addr
	r.top = (r.top + 1) % len(r.entries)
	if r.depth < len(r.entries) {
		r.depth++
	}
}

// Pop predicts the target of a return. ok is false when the stack is empty.
func (r *RAS) Pop() (addr uint64, ok bool) {
	if r.depth == 0 {
		return 0, false
	}
	r.top = (r.top - 1 + len(r.entries)) % len(r.entries)
	r.depth--
	return r.entries[r.top], true
}
