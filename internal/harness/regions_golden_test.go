package harness

// Byte-exact snapshot of region-stitched runs. Every cell runs K=3 regions
// over a short measured span and compares the stitched IPC, Stats, Meter
// and FFInsts plus every per-region IPC/Stats/Meter against a checked-in
// record, so any change to how regions are checkpointed, warmed or
// stitched shows up as a diff rather than only as a shift in their sum.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/harness -run TestRegionsGolden -update-regions

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"fvp/internal/ooo"
	"fvp/internal/vp"
	"fvp/internal/workload"
)

var updateRegions = flag.Bool("update-regions", false, "rewrite testdata/regions_golden.json from the current executor")

const regionsGoldenPath = "testdata/regions_golden.json"

// regionsGoldenRow is one region's pinned measurement. StartSeq is left
// out: it is bookkeeping, not a simulated value.
type regionsGoldenRow struct {
	IPC   float64
	Stats ooo.RunStats
	Meter vp.Meter
}

// regionsGoldenRecord is one matrix cell. FFSeconds is wall time and is
// not recorded.
type regionsGoldenRecord struct {
	Key     string
	IPC     float64
	Stats   ooo.RunStats
	Meter   vp.Meter
	FFInsts uint64
	Regions []regionsGoldenRow
}

func regionsGoldenCells(t *testing.T) []regionsGoldenRecord {
	t.Helper()
	var recs []regionsGoldenRecord
	for _, name := range []string{"omnetpp", "mcf", "gcc"} {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		for _, mode := range []WarmupMode{WarmupDetailed, WarmupFunctional} {
			r := runOne(t, w, ooo.Skylake(), Factory(SpecFVP), Options{
				WarmupInsts: 5_000, MeasureInsts: 30_000,
				Regions: 3, WarmupMode: mode,
			})
			rec := regionsGoldenRecord{
				Key: fmt.Sprintf("%s/%s/K=3", name, mode),
				IPC: r.IPC, Stats: r.Stats, Meter: r.Meter, FFInsts: r.FFInsts,
			}
			for _, reg := range r.Regions {
				rec.Regions = append(rec.Regions, regionsGoldenRow{IPC: reg.IPC, Stats: reg.Stats, Meter: reg.Meter})
			}
			recs = append(recs, rec)
		}
	}
	return recs
}

func TestRegionsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regions golden skipped in -short mode")
	}
	recs := regionsGoldenCells(t)
	if *updateRegions {
		data, err := json.MarshalIndent(recs, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(regionsGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d records to %s", len(recs), regionsGoldenPath)
		return
	}
	data, err := os.ReadFile(regionsGoldenPath)
	if err != nil {
		t.Fatalf("read regions golden: %v (run with -update-regions to generate)", err)
	}
	var want []regionsGoldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", regionsGoldenPath, err)
	}
	if len(want) != len(recs) {
		t.Fatalf("golden has %d records, matrix has %d", len(want), len(recs))
	}
	for i, got := range recs {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want[i])
		if !bytes.Equal(g, w) {
			t.Errorf("%s diverged from golden:\n got: %s\nwant: %s", got.Key, g, w)
		}
	}
}
