package main

import (
	"context"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fvp"
)

// expectedFiles are the recorded outputs of every workload's inputs, made
// by the fvp library (-record-expected). Service results are held to the
// same table, so fvpd must return exactly what the library computes.
//
//go:embed expected/*.json
var expectedFiles embed.FS

// expectedFile is the layout of expected/<workload>.json.
type expectedFile struct {
	Workload string                   `json:"workload"`
	Scales   map[scale]*expectedTable `json:"scales"`
}

// expectedTable is one scale's outputs.
type expectedTable struct {
	// Digest is the SHA-256 of the "key digest" lines of every input in
	// canonical order.
	Digest string `json:"digest"`
	// Results holds the digest of each input's metrics, in canonical order.
	Results []string `json:"results"`
	// IPC maps an input key to its measured IPC (the sweeps only).
	IPC map[string]float64 `json:"ipc,omitempty"`

	// byKey maps an input key to its entry of Results.
	byKey map[string]string
}

// digestOf is the first 16 hex digits of the SHA-256 of a result's JSON
// wire form. It covers every field that describes the simulated machine
// or the sampling plan. FFInstsPerSec is a wall-clock rate of the host,
// and SkippedCycles and SkipEvents count the cycles the simulator elided
// rather than simulated: an attached observer splits elided stretches at
// its sampling boundaries (fvpd attaches one for its progress gauge), and
// a faster elision would change them too, while every simulated statistic
// stays the same. So those three are left out.
func digestOf(m fvp.Metrics) string {
	m.FFInstsPerSec, m.SkippedCycles, m.SkipEvents = 0, 0, 0
	b, err := json.Marshal(m)
	if err != nil {
		panic(err) // fvp.Metrics holds only plain numbers and strings
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// tableDigest hashes the canonical listing of a table.
func tableDigest(ins []input, results []string) string {
	h := sha256.New()
	for i, in := range ins {
		fmt.Fprintf(h, "%s %s\n", in.key, results[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// loadExpected returns the expected table of a workload at a scale,
// checking that it covers exactly the workload's inputs in their
// canonical order.
func loadExpected(w *benchWorkload, sc scale) (*expectedTable, error) {
	raw, err := expectedFiles.ReadFile("expected/" + w.name + ".json")
	if err != nil {
		return nil, err
	}
	var f expectedFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("expected/%s.json: %w", w.name, err)
	}
	t := f.Scales[sc]
	if t == nil {
		return nil, fmt.Errorf("expected/%s.json: no %s scale", w.name, sc)
	}
	ins := w.inputs(sc)
	if len(ins) != len(t.Results) {
		return nil, fmt.Errorf("expected/%s.json: %d results for %d inputs; run -record-expected", w.name, len(t.Results), len(ins))
	}
	if d := tableDigest(ins, t.Results); d != t.Digest {
		return nil, fmt.Errorf("expected/%s.json: %s digest %s does not match its inputs (%s); run -record-expected", w.name, sc, t.Digest, d)
	}
	t.byKey = make(map[string]string, len(ins))
	for i, in := range ins {
		t.byKey[in.key] = t.Results[i]
	}
	return t, nil
}

// recordExpected runs every input of the named workloads through the fvp
// library on two goroutines and writes their expected tables to dir.
func recordExpected(ctx context.Context, names []string, dir string, log func(string, ...any)) error {
	for _, name := range names {
		w, ok := workloadByName(name)
		if !ok {
			return fmt.Errorf("no workload %q", name)
		}
		f := expectedFile{Workload: w.name, Scales: map[scale]*expectedTable{}}
		for _, sc := range []scale{scaleFull, scaleTiny} {
			ins := w.inputs(sc)
			t0 := time.Now()
			ms, err := runLibrary(ctx, ins)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			t := &expectedTable{}
			for i, in := range ins {
				t.Results = append(t.Results, digestOf(ms[i]))
				if w.sweep {
					if t.IPC == nil {
						t.IPC = map[string]float64{}
					}
					t.IPC[in.key] = ms[i].IPC
				}
			}
			t.Digest = tableDigest(ins, t.Results)
			f.Scales[sc] = t
			log("%s %s: %d results in %.1fs, digest %s", w.name, sc, len(ins), time.Since(t0).Seconds(), t.Digest)
		}
		b, err := json.MarshalIndent(f, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, w.name+".json"), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runLibrary runs every input with fvp.RunContext on two goroutines and
// returns the metrics in input order.
func runLibrary(ctx context.Context, ins []input) ([]fvp.Metrics, error) {
	out := make([]fvp.Metrics, len(ins))
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ins) || errs[g] != nil {
					return
				}
				out[i], errs[g] = fvp.RunContext(ctx, ins[i].spec)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
