// Package trace provides a compact binary encoding of dynamic micro-op
// streams, so workload traces can be dumped once (cmd/tracegen) and
// replayed into the timing model without re-executing the functional
// simulator. The format is a varint-delta encoding: sequence numbers and
// PCs are strongly local, so traces compress to a few bytes per
// instruction.
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"fvp/internal/isa"
)

// magic identifies the stream format; bump version on layout changes.
var magic = [4]byte{'F', 'V', 'P', '1'}

// flag bits of the per-record header.
const (
	fHasDest uint8 = 1 << iota
	fHasMem
	fTaken
	fHasTarget
)

// Writer encodes dynamic instructions to an io.Writer.
type Writer struct {
	w      *bufio.Writer
	lastPC uint64
	n      uint64
	closed bool
}

// NewWriter starts a stream on w, writing the header immediately.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, fmt.Errorf("trace: write header: %w", err)
	}
	return &Writer{w: bw}, nil
}

func putUvarint(w *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Append encodes one instruction. Instructions must be appended in
// sequence order.
func (w *Writer) Append(d *isa.DynInst) error {
	if w.closed {
		return errors.New("trace: writer closed")
	}
	var flags uint8
	if d.HasDest() {
		flags |= fHasDest
	}
	if d.Op.IsMem() {
		flags |= fHasMem
	}
	if d.Taken {
		flags |= fTaken
	}
	if d.Op.IsBranch() {
		flags |= fHasTarget
	}
	if err := w.w.WriteByte(uint8(d.Op)); err != nil {
		return err
	}
	if err := w.w.WriteByte(flags); err != nil {
		return err
	}
	if err := w.w.WriteByte(uint8(d.Dst)); err != nil {
		return err
	}
	if err := w.w.WriteByte(uint8(d.Src1)); err != nil {
		return err
	}
	if err := w.w.WriteByte(uint8(d.Src2)); err != nil {
		return err
	}
	if err := putUvarint(w.w, zigzag(int64(d.PC)-int64(w.lastPC))); err != nil {
		return err
	}
	w.lastPC = d.PC
	if flags&fHasMem != 0 {
		if err := putUvarint(w.w, d.Addr); err != nil {
			return err
		}
	}
	if flags&(fHasDest|fHasMem) != 0 {
		if err := putUvarint(w.w, d.Value); err != nil {
			return err
		}
	}
	if flags&fHasTarget != 0 {
		if err := putUvarint(w.w, zigzag(int64(d.Target)-int64(d.PC))); err != nil {
			return err
		}
	}
	w.n++
	return nil
}

// Count returns the number of instructions appended.
func (w *Writer) Count() uint64 { return w.n }

// Flush completes the stream.
func (w *Writer) Flush() error {
	w.closed = true
	return w.w.Flush()
}

// Record encodes up to n instructions from src into a packed in-memory
// trace (header included) and returns the buffer and the count actually
// recorded (short only when src runs dry).
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

// Reader decodes a stream produced by Writer. It implements the core's
// InstSource.
type Reader struct {
	r      *bufio.Reader
	lastPC uint64
	seq    uint64
	err    error
}

// NewReader validates the header and positions at the first record.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	if hdr != magic {
		return nil, fmt.Errorf("trace: bad magic %q", hdr[:])
	}
	return &Reader{r: br}, nil
}

// Err returns the terminal error, if any (nil after clean EOF).
func (r *Reader) Err() error { return r.err }

// Next decodes the next instruction into d; false at EOF or error.
func (r *Reader) Next(d *isa.DynInst) bool {
	if r.err != nil {
		return false
	}
	op, err := r.r.ReadByte()
	if err != nil {
		if !errors.Is(err, io.EOF) {
			r.err = err
		}
		return false
	}
	flags, err := r.r.ReadByte()
	if err != nil {
		r.err = fmt.Errorf("trace: truncated record: %w", err)
		return false
	}
	var regs [3]byte
	for i := range regs {
		regs[i], err = r.r.ReadByte()
		if err != nil {
			r.err = fmt.Errorf("trace: truncated record: %w", err)
			return false
		}
	}
	*d = isa.DynInst{
		Seq:  r.seq,
		Op:   isa.Op(op),
		Dst:  isa.Reg(regs[0]),
		Src1: isa.Reg(regs[1]),
		Src2: isa.Reg(regs[2]),
	}
	dpc, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.err = fmt.Errorf("trace: truncated pc: %w", err)
		return false
	}
	d.PC = uint64(int64(r.lastPC) + unzigzag(dpc))
	r.lastPC = d.PC
	if flags&fHasMem != 0 {
		if d.Addr, err = binary.ReadUvarint(r.r); err != nil {
			r.err = fmt.Errorf("trace: truncated addr: %w", err)
			return false
		}
		d.MemSize = 8
	}
	if flags&(fHasDest|fHasMem) != 0 {
		if d.Value, err = binary.ReadUvarint(r.r); err != nil {
			r.err = fmt.Errorf("trace: truncated value: %w", err)
			return false
		}
	}
	d.Taken = flags&fTaken != 0
	if flags&fHasTarget != 0 {
		dt, err := binary.ReadUvarint(r.r)
		if err != nil {
			r.err = fmt.Errorf("trace: truncated target: %w", err)
			return false
		}
		d.Target = uint64(int64(d.PC) + unzigzag(dt))
	}
	r.seq++
	return true
}
