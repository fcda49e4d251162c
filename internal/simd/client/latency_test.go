package client

import (
	"bytes"
	"context"
	"math"
	"net/http/httptest"
	"testing"

	"fvp"
	"fvp/internal/simd"
	"fvp/internal/telemetry"
)

// TestSummarizeHistogramRoundTrip: rendering a telemetry histogram to
// Prometheus text and parsing it back recovers the totals exactly and
// the quantiles to bucket resolution — including summing across label
// sets of one family.
func TestSummarizeHistogramRoundTrip(t *testing.T) {
	v := telemetry.NewVec(telemetry.NewLatency)
	ok := v.With(`path="/v1/runs",outcome="ok"`)
	bad := v.With(`path="/v1/runs",outcome="server_error"`)
	for i := 0; i < 90; i++ {
		ok.Observe(0.001) // 1ms
	}
	for i := 0; i < 10; i++ {
		bad.Observe(0.5) // 500ms tail
	}
	var buf bytes.Buffer
	v.WriteProm(&buf, "fvpd_request_seconds", "help")

	sum, err := SummarizeHistogram(buf.String(), "fvpd_request_seconds")
	if err != nil {
		t.Fatal(err)
	}
	if sum.Count != 100 {
		t.Errorf("count = %d, want 100", sum.Count)
	}
	if want := 90*0.001 + 10*0.5; math.Abs(sum.Sum-want) > 1e-9 {
		t.Errorf("sum = %g, want %g", sum.Sum, want)
	}
	// p50 sits in the bucket containing 1ms, p99 in the one containing
	// 500ms; log buckets bound each within a ×2 ratio.
	if sum.P50 <= 0.0005 || sum.P50 > 0.002 {
		t.Errorf("p50 = %g, want ~1ms", sum.P50)
	}
	if sum.P99 <= 0.25 || sum.P99 > 1.0 {
		t.Errorf("p99 = %g, want ~500ms", sum.P99)
	}

	if _, err := SummarizeHistogram(buf.String(), "fvpd_absent_seconds"); err == nil {
		t.Error("absent family did not error")
	}
}

// TestRequestLatencyFromServer: the helper reads a live service's
// exposition end to end.
func TestRequestLatencyFromServer(t *testing.T) {
	svc := simd.New(simd.Config{Workers: 1, Run: func(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
		return fvp.Metrics{IPC: 1, Cycles: 1, Insts: 1}, nil
	}})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	c := New(srv.URL)
	spec := fvp.RunSpec{Workload: "omnetpp", Predictor: "fvp", WarmupInsts: 100, MeasureInsts: 1000}
	if _, err := c.Run(context.Background(), spec, ""); err != nil {
		t.Fatal(err)
	}
	sum, err := c.RequestLatency(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Count == 0 || sum.P99 <= 0 {
		t.Fatalf("no latency recorded: %+v", sum)
	}
}
