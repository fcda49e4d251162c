package simd

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"fvp"
)

// refSpecKey is the reference for specKey: the fmt.Sprintf formula it was
// first written as. Durable stores and the cluster ring hold keys of this
// form, so specKey must match it byte for byte.
func refSpecKey(s fvp.RunSpec) string {
	n := s.Normalized()
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%s|%s|%d|%d|%s|%d|%d|%d|%d|%g|%d|%d",
		n.Workload, n.Machine, n.Predictor, n.WarmupInsts, n.MeasureInsts,
		n.WarmupMode, n.Regions,
		n.SampleUnits, n.SampleUnitInsts, n.SampleWarmupInsts,
		n.SampleTargetCI, n.SampleMaxUnits, n.SampleSeed)))
	return hex.EncodeToString(sum[:16])
}

// randomSpec draws a spec from names the service knows and strings it
// does not, small and extreme numbers, and CI targets that %g prints in
// exponent form or as a special value.
func randomSpec(rng *rand.Rand) fvp.RunSpec {
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	str := func() string {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return string(b)
	}
	u64 := func() uint64 {
		switch rng.Intn(3) {
		case 0:
			return 0
		case 1:
			return uint64(rng.Intn(1_000_000))
		}
		return rng.Uint64()
	}
	i64 := func() int {
		switch rng.Intn(3) {
		case 0:
			return 0
		case 1:
			return rng.Intn(200) - 20
		}
		return int(rng.Uint64())
	}
	cis := []float64{0, 0.05, 0.1 + 0.2, 1e-05, 1.5e-07, 2.5e+21, 1e+20, 1e+21, 123456789, -0.001,
		math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64, math.MaxFloat64}
	ci := cis[rng.Intn(len(cis))]
	if rng.Intn(2) == 0 {
		ci = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	}
	return fvp.RunSpec{
		Workload:          pick("omnetpp", "mcf", "a|b", "", str()),
		Machine:           fvp.Machine(pick("", "skylake", "skylake2x", str())),
		Predictor:         fvp.Predictor(pick("", "none", "fvp", "composite-1kb", str())),
		WarmupInsts:       u64(),
		MeasureInsts:      u64(),
		WarmupMode:        pick("", "detailed", "functional", str()),
		Regions:           i64(),
		SampleUnits:       i64(),
		SampleUnitInsts:   u64(),
		SampleWarmupInsts: u64(),
		SampleTargetCI:    ci,
		SampleMaxUnits:    i64(),
		SampleSeed:        u64(),
	}
}

// TestSpecKeyMatchesReference compares specKey with refSpecKey over
// 20,000 random specs.
func TestSpecKeyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 20_000; i++ {
		s := randomSpec(rng)
		if got, want := specKey(s), refSpecKey(s); got != want {
			t.Fatalf("spec %+v: key %s, reference %s", s, got, want)
		}
	}
}

// FuzzSpecKey compares specKey with refSpecKey on fuzzed specs.
func FuzzSpecKey(f *testing.F) {
	f.Add("omnetpp", "", "fvp", uint64(0), uint64(0), "", 0, 0, uint64(0), uint64(0), 0.0, 0, uint64(0))
	f.Add("mcf", "skylake2x", "none", uint64(100_000), uint64(300_000), "functional", 4, 16, uint64(2000), uint64(50_000), 0.05, 64, uint64(7))
	f.Add("a|b", "skylake", "composite-1kb", uint64(1), uint64(1<<63), "detailed", -1, 0, uint64(0), uint64(0), 1.5e-07, -3, uint64(1<<64-1))
	f.Add("leela", "", "", uint64(2000), uint64(5000), "", 0, 0, uint64(0), uint64(0), 2.5e+21, 0, uint64(0))
	f.Fuzz(func(t *testing.T, workload, machine, pred string, warmup, measure uint64, mode string,
		regions, units int, unitInsts, unitWarmup uint64, ci float64, maxUnits int, seed uint64) {
		s := fvp.RunSpec{
			Workload: workload, Machine: fvp.Machine(machine), Predictor: fvp.Predictor(pred),
			WarmupInsts: warmup, MeasureInsts: measure, WarmupMode: mode, Regions: regions,
			SampleUnits: units, SampleUnitInsts: unitInsts, SampleWarmupInsts: unitWarmup,
			SampleTargetCI: ci, SampleMaxUnits: maxUnits, SampleSeed: seed,
		}
		if got, want := specKey(s), refSpecKey(s); got != want {
			t.Fatalf("spec %+v: key %s, reference %s", s, got, want)
		}
	})
}

// TestUndecodableCachedResultIsAMiss: a stored record that does not
// decode as fvp.Metrics, such as one another version of the program
// wrote, is served as a miss. The spec runs again, and the answer carries
// the fresh result, never the stored bytes; the next submit is a hit on
// the fresh result. A replica push of such bytes is refused.
func TestUndecodableCachedResultIsAMiss(t *testing.T) {
	stores := openDisk(t, t.TempDir())
	spec := fvp.RunSpec{Workload: "omnetpp", Predictor: fvp.PredFVP, WarmupInsts: 1000, MeasureInsts: 2000}
	const stale = `{"ipc":"1.5","cycles":-1}`
	if err := stores.Results.Put(SpecKey(spec), []byte(stale)); err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	svc := New(Config{Workers: 1, Stores: stores, Run: func(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
		runs.Add(1)
		return fvp.Metrics{IPC: 0.75, Cycles: 4000, Insts: 3000}, nil
	}})
	srv := httptest.NewServer(svc.Handler())
	defer func() {
		srv.Close()
		svc.Close()
	}()
	body, _ := json.Marshal(RunRequest{RunSpec: spec})
	submit := func() (cached bool, metrics fvp.Metrics, raw string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/runs?wait=1", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		var out struct {
			Jobs []struct {
				State   State           `json:"state"`
				Cached  bool            `json:"cached"`
				Metrics json.RawMessage `json:"metrics"`
			} `json:"jobs"`
		}
		if err := json.Unmarshal(b, &out); err != nil || resp.StatusCode != http.StatusOK || len(out.Jobs) != 1 || out.Jobs[0].State != StateDone {
			t.Fatalf("HTTP %d %s (%v)", resp.StatusCode, b, err)
		}
		if err := json.Unmarshal(out.Jobs[0].Metrics, &metrics); err != nil {
			t.Fatalf("answer carries undecodable metrics %s: %v", out.Jobs[0].Metrics, err)
		}
		return out.Jobs[0].Cached, metrics, string(b)
	}

	cached, m, raw := submit()
	if cached || runs.Load() != 1 || m.IPC != 0.75 || strings.Contains(raw, `"1.5"`) {
		t.Fatalf("first submit: cached=%v runs=%d answer %s, want a fresh run", cached, runs.Load(), raw)
	}
	cached, m, raw = submit()
	if !cached || runs.Load() != 1 || m.IPC != 0.75 || m.Insts != 3000 {
		t.Fatalf("second submit: cached=%v runs=%d answer %s, want a hit on the fresh result", cached, runs.Load(), raw)
	}

	other := spec
	other.MeasureInsts++
	if err := svc.PutCachedResult(SpecKey(other), []byte(stale)); err == nil {
		t.Error("PutCachedResult accepted a record that does not decode as fvp.Metrics")
	}
	if svc.HasCachedResult(SpecKey(other)) {
		t.Error("a refused replica was cached")
	}
}
