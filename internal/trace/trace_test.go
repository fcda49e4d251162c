package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"fvp/internal/isa"
)

func sample() []isa.DynInst {
	return []isa.DynInst{
		{Seq: 0, PC: 0x400000, Op: isa.OpALU, Dst: 1, Src1: 2, Value: 42},
		{Seq: 1, PC: 0x400004, Op: isa.OpLoad, Dst: 3, Src1: 1, Addr: 0x8000, Value: 7, MemSize: 8},
		{Seq: 2, PC: 0x400008, Op: isa.OpStore, Src1: 1, Src2: 3, Addr: 0x8008, Value: 7, MemSize: 8},
		{Seq: 3, PC: 0x40000C, Op: isa.OpBranch, Src1: 3, Taken: true, Target: 0x400000},
		{Seq: 4, PC: 0x400000, Op: isa.OpBranch, Src1: 3, Taken: false, Target: 0x400010},
		{Seq: 5, PC: 0x400004, Op: isa.OpNop},
	}
}

func roundTrip(t *testing.T, insts []isa.DynInst) []isa.DynInst {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range insts {
		if err := w.Append(&insts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var out []isa.DynInst
	var d isa.DynInst
	for r.Next(&d) {
		out = append(out, d)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	in := sample()
	out := roundTrip(t, in)
	if len(out) != len(in) {
		t.Fatalf("decoded %d of %d", len(out), len(in))
	}
	for i := range in {
		a, b := in[i], out[i]
		if a.PC != b.PC || a.Op != b.Op || a.Dst != b.Dst || a.Src1 != b.Src1 ||
			a.Src2 != b.Src2 || a.Taken != b.Taken || a.Seq != b.Seq {
			t.Errorf("record %d: got %+v want %+v", i, b, a)
		}
		if a.Op.IsMem() && (a.Addr != b.Addr || a.Value != b.Value) {
			t.Errorf("record %d memory fields: got %+v want %+v", i, b, a)
		}
		if a.HasDest() && a.Value != b.Value {
			t.Errorf("record %d value: got %d want %d", i, b.Value, a.Value)
		}
		if a.Op.IsBranch() && a.Target != b.Target {
			t.Errorf("record %d target: got %#x want %#x", i, b.Target, a.Target)
		}
	}
}

func TestWriterCount(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	in := sample()
	for i := range in {
		w.Append(&in[i])
	}
	if w.Count() != uint64(len(in)) {
		t.Errorf("count = %d", w.Count())
	}
}

func TestAppendAfterFlushFails(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Flush()
	d := sample()[0]
	if err := w.Append(&d); err == nil {
		t.Error("append after flush must fail")
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := NewReader(strings.NewReader("NOPE....")); err == nil {
		t.Error("bad magic must be rejected")
	}
	if _, err := NewReader(strings.NewReader("FV")); err == nil {
		t.Error("short header must be rejected")
	}
}

func TestTruncatedStreamReportsError(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	in := sample()
	for i := range in {
		w.Append(&in[i])
	}
	w.Flush()
	trunc := buf.Bytes()[:buf.Len()-3]
	r, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	var d isa.DynInst
	for r.Next(&d) {
	}
	if r.Err() == nil {
		t.Error("truncated stream must surface an error")
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40)} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("zigzag roundtrip %d -> %d", v, got)
		}
	}
}

// Property: arbitrary well-formed instructions roundtrip.
func TestRoundTripProperty(t *testing.T) {
	f := func(pcs []uint32, ops []uint8, vals []uint64) bool {
		n := len(pcs)
		if len(ops) < n {
			n = len(ops)
		}
		if len(vals) < n {
			n = len(vals)
		}
		if n == 0 {
			return true
		}
		in := make([]isa.DynInst, n)
		for i := 0; i < n; i++ {
			op := isa.Op(ops[i] % uint8(isa.NumOps))
			in[i] = isa.DynInst{
				Seq: uint64(i), PC: uint64(pcs[i]) &^ 3, Op: op,
				Dst: isa.Reg(vals[i] % 32), Src1: isa.Reg(vals[i] >> 5 % 32),
				Value: vals[i],
			}
			if op.IsMem() {
				in[i].Addr = vals[i] &^ 7
				in[i].MemSize = 8
			}
			if op.IsBranch() {
				in[i].Taken = vals[i]&1 == 1
				in[i].Target = uint64(pcs[i]+4) &^ 3
			}
		}
		var buf bytes.Buffer
		w, _ := NewWriter(&buf)
		for i := range in {
			if w.Append(&in[i]) != nil {
				return false
			}
		}
		w.Flush()
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		var d isa.DynInst
		for i := 0; i < n; i++ {
			if !r.Next(&d) {
				return false
			}
			if d.PC != in[i].PC || d.Op != in[i].Op || d.Taken != in[i].Taken {
				return false
			}
		}
		return !r.Next(&d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCompactness(t *testing.T) {
	// The varint-delta format should average well under 16 bytes per
	// instruction on looping code.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	in := sample()
	for i := 0; i < 1000; i++ {
		for j := range in {
			w.Append(&in[j])
		}
	}
	w.Flush()
	perInst := float64(buf.Len()) / 6000
	if perInst > 16 {
		t.Errorf("%.1f bytes per instruction — encoding too fat", perInst)
	}
}

// TestRecordStopsAtSourceEnd: Record reports a short count when the source
// runs dry, and the recorded prefix decodes back to the source's output.
func TestRecordStopsAtSourceEnd(t *testing.T) {
	in := sample()
	src := &sliceSource{insts: in}
	data, n, err := Record(src, uint64(len(in))+100)
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(in)) {
		t.Fatalf("recorded %d, want %d", n, len(in))
	}
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var d isa.DynInst
	i := 0
	for ; r.Next(&d); i++ {
		want := in[i]
		want.Seq = uint64(i) // readers assign seq themselves
		if d != want {
			t.Errorf("record %d: got %+v want %+v", i, d, want)
		}
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if i != len(in) {
		t.Fatalf("decoded %d records, want %d", i, len(in))
	}
}

// sliceSource replays a fixed slice through the generator interface.
type sliceSource struct {
	insts []isa.DynInst
	pos   int
}

func (s *sliceSource) Next(d *isa.DynInst) bool {
	if s.pos >= len(s.insts) {
		return false
	}
	*d = s.insts[s.pos]
	s.pos++
	return true
}
