package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"fvp/internal/isa"
)

// MemReader decodes a packed trace held entirely in memory. It is the
// hot-path replay source: Next is allocation-free, does no I/O and no
// bufio indirection — decoding a record is a handful of byte loads and
// varint folds, an order of magnitude cheaper than generating the same
// micro-op functionally. With loop set, the reader rewinds at the end of
// the buffer and keeps the sequence numbering monotonic, so a finite
// recorded window can drive an arbitrarily long benchmark run the way the
// infinite functional generator does.
//
// MemReader and Reader decode the identical stream identically
// (TestMemReaderMatchesReader); the core's replay-equivalence and the
// golden replay matrix pin the timing model to bit-identical results on
// either source.
type MemReader struct {
	data []byte // record bytes (header stripped)
	pos  int
	last uint64 // previous record's PC (delta base)
	seq  uint64
	loop bool
	err  error
}

// NewMemReader validates the stream header and positions at the first
// record. The buffer is aliased, not copied.
func NewMemReader(data []byte, loop bool) (*MemReader, error) {
	if len(data) < len(magic) || [4]byte(data[:4]) != magic {
		return nil, fmt.Errorf("trace: bad magic in %d-byte buffer", len(data))
	}
	if loop && len(data) == len(magic) {
		return nil, fmt.Errorf("trace: cannot loop an empty trace")
	}
	return &MemReader{data: data[len(magic):], loop: loop}, nil
}

// Record encodes up to n instructions from src into a packed in-memory
// trace (header included) and returns the buffer and the count actually
// recorded (short only when src runs dry). It is the one-step path from a
// functional generator to a replayable buffer: record a steady-state
// window once, then drive arbitrarily long benchmark runs from a looping
// MemReader over it.
func Record(src interface{ Next(*isa.DynInst) bool }, n uint64) ([]byte, uint64, error) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		return nil, 0, err
	}
	var d isa.DynInst
	var i uint64
	for i = 0; i < n; i++ {
		if !src.Next(&d) {
			break
		}
		if err := w.Append(&d); err != nil {
			return nil, i, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, i, err
	}
	return buf.Bytes(), i, nil
}

// Err returns the terminal error, if any (nil after clean EOF).
func (r *MemReader) Err() error { return r.err }

// corrupt records a decode failure and terminates the stream.
func (r *MemReader) corrupt(what string) bool {
	r.err = fmt.Errorf("trace: truncated %s at offset %d", what, r.pos)
	return false
}

// uvarintAt decodes a varint from data at pos without the slice-header
// construction and call overhead of binary.Uvarint — this is the inner
// loop of hot-path replay, where most operands (PC deltas, small values)
// fit one byte and take the early return. Semantics match binary.Uvarint
// exactly: ok is false on truncation and on 64-bit overflow.
func uvarintAt(data []byte, pos int) (v uint64, next int, ok bool) {
	if pos < len(data) {
		if b := data[pos]; b < 0x80 {
			return uint64(b), pos + 1, true
		}
	}
	var s uint
	for i := pos; i < len(data); i++ {
		b := data[i]
		if i-pos == binary.MaxVarintLen64 {
			return 0, pos, false // overflow
		}
		if b < 0x80 {
			if i-pos == binary.MaxVarintLen64-1 && b > 1 {
				return 0, pos, false // overflow
			}
			return v | uint64(b)<<s, i + 1, true
		}
		v |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, pos, false // truncated
}

// Next decodes the next instruction into d; false at EOF (non-looping) or
// on a corrupt record.
func (r *MemReader) Next(d *isa.DynInst) bool {
	if r.err != nil {
		return false
	}
	data := r.data
	pos := r.pos
	if pos >= len(data) {
		if !r.loop || len(data) == 0 {
			return false
		}
		// Rewind: PC deltas restart from the same base the recording
		// started at; seq keeps counting so the stream stays in program
		// order across the splice.
		pos = 0
		r.last = 0
	}
	if pos+5 > len(data) {
		r.pos = pos
		return r.corrupt("record")
	}
	op := data[pos]
	flags := data[pos+1]
	*d = isa.DynInst{
		Seq:  r.seq,
		Op:   isa.Op(op),
		Dst:  isa.Reg(data[pos+2]),
		Src1: isa.Reg(data[pos+3]),
		Src2: isa.Reg(data[pos+4]),
	}
	pos += 5
	dpc, pos, ok := uvarintAt(data, pos)
	if !ok {
		r.pos = pos
		return r.corrupt("pc")
	}
	d.PC = uint64(int64(r.last) + unzigzag(dpc))
	r.last = d.PC
	if flags&fHasMem != 0 {
		if d.Addr, pos, ok = uvarintAt(data, pos); !ok {
			r.pos = pos
			return r.corrupt("addr")
		}
		d.MemSize = 8
	}
	if flags&(fHasDest|fHasMem) != 0 {
		if d.Value, pos, ok = uvarintAt(data, pos); !ok {
			r.pos = pos
			return r.corrupt("value")
		}
	}
	d.Taken = flags&fTaken != 0
	if flags&fHasTarget != 0 {
		var dt uint64
		if dt, pos, ok = uvarintAt(data, pos); !ok {
			r.pos = pos
			return r.corrupt("target")
		}
		d.Target = uint64(int64(d.PC) + unzigzag(dt))
	}
	r.pos = pos
	r.seq++
	return true
}
