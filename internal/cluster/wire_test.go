package cluster

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fvp"
	"fvp/internal/simd"
)

// The /v1 wire goldens: the exact status code, Content-Type and body of
// each answer in fixed request sequences, against services whose runs are
// a deterministic stub. Regenerate (only for an intended wire change) with
//
//	go test ./internal/cluster -run TestWireGoldens -update-wire
var updateWire = flag.Bool("update-wire", false, "rewrite testdata/wire/ from the current servers")

// wireMetrics is the stub result: every field set, with floats that
// print in exponent form and at full precision, and values that vary
// with the spec so that distinct specs answer differently.
func wireMetrics(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
	w := spec.WarmupInsts
	return fvp.Metrics{
		IPC: 1.2345678901234567 + float64(w%7), Coverage: 0.25, Accuracy: 1e-07,
		Cycles: spec.MeasureInsts*2 + w, Insts: spec.MeasureInsts, Loads: 123 + w,
		VPFlushes: 4, BranchMispredicts: 56, Forwards: 7,
		LoadsByLevel:   [4]uint64{100, 20, 2, 1},
		CycleBreakdown: [9]uint64{1, 2, 3, 4, 5, 6, 7, 8, 9},
		SkippedCycles:  8, SkipEvents: 2, WarmupMode: "detailed",
		FFInsts: 1 << 40, FFInstsPerSec: 3.5e9,
		Sampling: &fvp.SamplingMetrics{
			Units: 16, UnitInsts: 2000, WarmupInsts: 50_000, Seed: 1, Rounds: 1, Converged: true,
			SampledInsts: 32_000,
			IPC:          fvp.SampleEstimate{Mean: 1.5, StdErr: 0.01, CIHalf: 0.0196, RelCI: 0.013066666666666667},
		},
	}, nil
}

// wireSpec is a submit body; warmup varies the content address.
func wireSpec(warmup int, extra string) string {
	return fmt.Sprintf(`{"workload":"omnetpp","predictor":"fvp","warmup_insts":%d,"measure_insts":5000%s}`, warmup, extra)
}

// answerOf sends one request and renders its answer as the goldens
// hold it: the status code and Content-Type, then the body.
func answerOf(t *testing.T, method, url, body string) string {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%d %s\n%s", resp.StatusCode, resp.Header.Get("Content-Type"), b)
}

// wireCheck sends one request and compares the answer with
// testdata/wire/<name>.txt (or records it under -update-wire). It
// returns the answer.
func wireCheck(t *testing.T, name, method, url, body string) string {
	t.Helper()
	got := answerOf(t, method, url, body)
	path := filepath.Join("testdata", "wire", name+".txt")
	if *updateWire {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return got
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-wire to record it)", err)
	}
	if got != string(want) {
		t.Errorf("%s: wire bytes changed\n got: %q\nwant: %q", name, got, want)
	}
	return got
}

// TestWireGoldens pins the answers of a single fvpd and of a two-node
// cluster, the latter with forward coalescing off and on: both must
// answer the same bytes. An empty batch is refused with one answer,
// submit-empty-batch, by every server in wait and in async mode.
func TestWireGoldens(t *testing.T) {
	t.Run("single-node", func(t *testing.T) {
		svc := simd.New(simd.Config{Workers: 1, Run: wireMetrics})
		srv := httptest.NewServer(svc.Handler())
		defer func() {
			srv.Close()
			svc.Close()
		}()
		check := func(name, method, path, body string) string {
			return wireCheck(t, name, method, srv.URL+path, body)
		}
		check("submit-wait-fresh", "POST", "/v1/runs?wait=1", wireSpec(1000, `,"tenant":"team-a"`))
		check("submit-wait-cached", "POST", "/v1/runs?wait=1", wireSpec(1000, ""))
		check("submit-wait-batch", "POST", "/v1/runs?wait=1", `{"runs":[`+wireSpec(1000, "")+`,`+
			wireSpec(1001, `,"machine":"skylake2x"`)+`,`+wireSpec(1001, `,"machine":"skylake2x"`)+`]}`)
		if got := check("submit-async", "POST", "/v1/runs", wireSpec(1002, `,"timeout_ms":60000`)); !strings.HasPrefix(got, "202 ") {
			t.Fatalf("async submit answered %q", got)
		}
		const id = "j-00000006"
		if _, err := svc.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
		check("submit-empty-batch", "POST", "/v1/runs?wait=1", `{"runs":[]}`)
		check("submit-empty-batch", "POST", "/v1/runs", `{"runs":[]}`)
		check("get-done", "GET", "/v1/runs/"+id, "")
		check("list", "GET", "/v1/runs", "")
		check("submit-invalid", "POST", "/v1/runs?wait=1", `{"workload":"omnetp"}`)
	})
	for _, window := range []time.Duration{0, 2 * time.Millisecond} {
		t.Run(fmt.Sprintf("cluster-window-%v", window), func(t *testing.T) {
			tc := newTestClusterWith(t, 2, func(c *simd.Config) {
				c.Run = wireMetrics
				c.BatchWindow = window
			}, nil)
			entry := tc.srvs["node0"].URL
			// The first warmups, from 2000 up, that node1 and node0 own.
			var remote, local []int
			for w := 2000; len(remote) < 3 || len(local) < 2; w++ {
				spec := fvp.RunSpec{Workload: "omnetpp", Predictor: "fvp", WarmupInsts: uint64(w), MeasureInsts: 5000}
				if tc.nodes["node0"].Owner(simd.SpecKey(spec)) == "node1" {
					remote = append(remote, w)
				} else {
					local = append(local, w)
				}
			}
			check := func(name, body string) {
				wireCheck(t, name, "POST", entry+"/v1/runs?wait=1", body)
			}
			check("cluster-forward-fresh", wireSpec(remote[0], ""))
			check("cluster-forward-cached", wireSpec(remote[0], ""))
			check("cluster-split-batch", `{"runs":[`+wireSpec(local[0], "")+`,`+wireSpec(remote[1], "")+`,`+
				wireSpec(remote[0], "")+`,`+wireSpec(local[0], `,"tenant":"team-b"`)+`]}`)
			wireCheck(t, "cluster-split-async", "POST", entry+"/v1/runs",
				`{"runs":[`+wireSpec(remote[2], "")+`,`+wireSpec(local[1], "")+`]}`)
			check("submit-empty-batch", `{"runs":[]}`)
			wireCheck(t, "submit-empty-batch", "POST", entry+"/v1/runs", `{"runs":[]}`)
		})
	}
}
