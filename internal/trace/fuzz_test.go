package trace

import (
	"bytes"
	"encoding/binary"
	"testing"

	"fvp/internal/isa"
)

// decodeFuzzInsts maps arbitrary fuzz bytes onto a dynamic instruction
// stream: twelve bytes per record, spread across every field the format
// encodes, with Seq assigned in order (the writer requires it).
func decodeFuzzInsts(data []byte) []isa.DynInst {
	const bytesPerInst = 12
	n := len(data) / bytesPerInst
	if n > 512 {
		n = 512
	}
	out := make([]isa.DynInst, 0, n)
	pc := uint64(0x40_0000)
	for i := 0; i < n; i++ {
		rec := data[i*bytesPerInst : (i+1)*bytesPerInst]
		d := isa.DynInst{
			Seq:  uint64(i),
			Op:   isa.Op(rec[0] % uint8(isa.NumOps)),
			Dst:  isa.Reg(rec[1] % isa.NumArchRegs),
			Src1: isa.Reg(rec[2] % isa.NumArchRegs),
			Src2: isa.Reg(rec[3] % isa.NumArchRegs),
		}
		// PCs wander both directions to exercise the zigzag delta.
		pc += uint64(int64(int8(rec[4]))) * isa.InstBytes
		d.PC = pc
		d.Taken = rec[5]&1 != 0
		if d.Op.IsMem() {
			d.Addr = binary.LittleEndian.Uint64(rec[4:12]) &^ 7
			d.MemSize = 8
		}
		if d.HasDest() || d.Op.IsMem() {
			d.Value = binary.LittleEndian.Uint64(rec[4:12]) >> 3
		}
		if d.Op.IsBranch() {
			d.Target = pc + uint64(int64(int8(rec[6])))*isa.InstBytes
		}
		out = append(out, d)
	}
	return out
}

// normalize maps an instruction onto the subset of fields the format
// preserves, so a round-tripped record can be compared exactly: Value is
// only carried for dest-writing or memory ops, Addr/MemSize only for memory
// ops, Target only for control flow.
func normalize(d isa.DynInst) isa.DynInst {
	if !d.HasDest() && !d.Op.IsMem() {
		d.Value = 0
	}
	if !d.Op.IsMem() {
		d.Addr = 0
		d.MemSize = 0
	}
	if !d.Op.IsBranch() {
		d.Target = 0
	}
	return d
}

// FuzzTraceRoundTrip drives arbitrary instruction streams through the
// varint-delta codec: every encodable field must survive encode→decode
// bit-exactly, and the reader must consume exactly the stream the writer
// produced (clean EOF, no error, no panic).
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{6, 1, 2, 0, 255, 1, 7, 0, 0, 0, 0, 0})                                      // load, negative pc delta
	f.Add([]byte{7, 0, 1, 2, 8, 0, 3, 0, 0, 0, 0, 0})                                        // store
	f.Add([]byte{8, 0, 4, 0, 1, 1, 250, 0, 0, 0, 0, 0, 10, 0, 0, 0, 2, 0, 1, 0, 0, 0, 0, 0}) // branch taken + call
	f.Add([]byte{12, 0, 9, 0, 100, 0, 200, 255, 255, 255, 255, 255})                         // indirect, huge operand
	f.Fuzz(func(t *testing.T, data []byte) {
		insts := decodeFuzzInsts(data)
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatalf("NewWriter: %v", err)
		}
		for i := range insts {
			if err := w.Append(&insts[i]); err != nil {
				t.Fatalf("Append inst %d: %v", i, err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		if w.Count() != uint64(len(insts)) {
			t.Fatalf("writer count %d, appended %d", w.Count(), len(insts))
		}

		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("NewReader: %v", err)
		}
		var got isa.DynInst
		for i := range insts {
			if !r.Next(&got) {
				t.Fatalf("reader stopped at record %d of %d (err: %v)", i, len(insts), r.Err())
			}
			want := normalize(insts[i])
			if got != want {
				t.Fatalf("record %d mismatch:\n got: %+v\nwant: %+v", i, got, want)
			}
		}
		if r.Next(&got) {
			t.Fatalf("reader produced record beyond the %d written", len(insts))
		}
		if err := r.Err(); err != nil {
			t.Fatalf("reader error after clean stream: %v", err)
		}
	})
}

// FuzzTraceReader hands the reader raw attacker-controlled bytes: it must
// reject or truncate without panicking, and a reported error must be sticky.
func FuzzTraceReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("FVP1"))
	f.Add([]byte("FVP1\x06\x02\x01\x02\x00\x10\x20\x30"))
	f.Add([]byte("XXXX\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return // malformed header rejected cleanly
		}
		var d isa.DynInst
		for i := 0; i < 4096 && r.Next(&d); i++ {
		}
		if r.Err() != nil && r.Next(&d) {
			t.Fatal("reader returned a record after a terminal error")
		}
	})
}
