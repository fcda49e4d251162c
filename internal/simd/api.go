// Package simd is the batch-simulation service behind cmd/fvpd: a
// bounded job queue with backpressure, a worker pool sized to the host,
// a content-addressed result cache with single-flight deduplication, and
// an HTTP/JSON API for submitting runs and polling results.
//
// The execution model is deliberately simple: every submitted RunSpec is
// normalized and hashed; identical specs share one simulation (whether
// they arrive concurrently or after a result is cached), and distinct
// specs queue behind a fixed-capacity run queue whose overflow surfaces
// to clients as 503 + Retry-After rather than unbounded memory growth.
package simd

import (
	"encoding/json"
	"errors"

	"fvp"
)

// State is a job's lifecycle phase.
type State string

// Job states, in lifecycle order. Queued and Running are transient;
// Done, Failed, and Canceled are terminal.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// terminal reports whether a job in this state will never change again.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// RunRequest is one unit of work submitted to the service: a façade
// RunSpec plus service-level knobs.
type RunRequest struct {
	fvp.RunSpec
	// Tenant attributes the run to a submitter for admission control and
	// fairness; "" is the anonymous tenant. Tenancy is a service-level
	// concern: it is not part of the spec's content address, so identical
	// specs from different tenants still share one simulation.
	Tenant string `json:"tenant,omitempty"`
	// Sampling is the versioned form of the sampled-simulation knobs,
	// replacing the embedded RunSpec's flat sample_* fields. The flat
	// fields are still accepted (the service answers them with a
	// Deprecation header); setting both is a validation error.
	Sampling *SamplingSpec `json:"sampling,omitempty"`
	// TimeoutMS bounds the simulation's wall time; 0 means no deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Trace asks the run to record a pipeline trace artifact (Perfetto /
	// chrome://tracing JSON), retrievable from GET /v1/runs/{id}/trace.
	// Traces are only captured for single-region runs.
	Trace bool `json:"trace,omitempty"`
}

// SamplingSpec is the nested sampled-simulation block of a RunRequest.
// Fields mirror fvp.RunSpec's sample_* knobs one-to-one; see those for
// semantics.
type SamplingSpec struct {
	Units       int     `json:"units,omitempty"`
	UnitInsts   uint64  `json:"unit_insts,omitempty"`
	WarmupInsts uint64  `json:"warmup_insts,omitempty"`
	TargetCI    float64 `json:"target_ci,omitempty"`
	MaxUnits    int     `json:"max_units,omitempty"`
	Seed        uint64  `json:"seed,omitempty"`
}

// ErrSamplingConflict rejects a request that sets both the nested
// Sampling block and the deprecated flat sample_* fields.
var ErrSamplingConflict = errors.New(
	`simd: request sets both "sampling" and the deprecated flat sample_* fields; use "sampling" only`)

// flatSampling reports whether the request sets any of the deprecated
// flat sample_* fields.
func (r RunRequest) flatSampling() bool {
	return r.SampleUnits != 0 || r.SampleUnitInsts != 0 || r.SampleWarmupInsts != 0 ||
		r.SampleTargetCI != 0 || r.SampleMaxUnits != 0 || r.SampleSeed != 0
}

// Flattened folds the nested Sampling block into the embedded RunSpec's
// flat fields — the execution-side representation — erroring when both
// forms are present.
func (r RunRequest) Flattened() (RunRequest, error) {
	if r.Sampling == nil {
		return r, nil
	}
	if r.flatSampling() {
		return r, ErrSamplingConflict
	}
	sp := r.Sampling
	r.SampleUnits = sp.Units
	r.SampleUnitInsts = sp.UnitInsts
	r.SampleWarmupInsts = sp.WarmupInsts
	r.SampleTargetCI = sp.TargetCI
	r.SampleMaxUnits = sp.MaxUnits
	r.SampleSeed = sp.Seed
	r.Sampling = nil
	return r, nil
}

// Progress reports how far a running simulation has gotten. The feed is
// the façade's interval observer, which samples the measured region only,
// so RetiredInsts counts measured-region retirements (warmup shows 0/target)
// and trails real time by at most one sampling interval.
type Progress struct {
	// RetiredInsts is the number of measured-region instructions retired
	// as of the last telemetry sample.
	RetiredInsts uint64 `json:"retired_insts"`
	// TargetInsts is the run's measured-region length.
	TargetInsts uint64 `json:"target_insts"`
	// Ratio is RetiredInsts/TargetInsts in [0,1].
	Ratio float64 `json:"ratio"`
}

// JobStatus is the externally visible snapshot of a job.
type JobStatus struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Cached is true when the result was served from the content-addressed
	// cache or deduplicated onto an in-flight identical run.
	Cached bool        `json:"cached"`
	Spec   fvp.RunSpec `json:"spec"`
	// Tenant is the submitter the job is attributed to ("" = anonymous).
	Tenant string `json:"tenant,omitempty"`
	// Node names the cluster node the job lives on; empty outside
	// cluster mode.
	Node string `json:"node,omitempty"`
	// Progress is present while State is running (followers report their
	// leader's progress).
	Progress *Progress `json:"progress,omitempty"`
	// Metrics is present once State is done: the encoded fvp.Metrics,
	// the bytes the service stored for the spec, which every answer
	// writes as they are. The Go client's Run decodes them.
	Metrics json.RawMessage `json:"metrics,omitempty"`
	// Artifacts names the stored artifacts attached to a done job (e.g.
	// "trace-<speckey>"); fetch via GET /v1/runs/{id}/trace.
	Artifacts []string `json:"artifacts,omitempty"`
	// Error is present when State is failed or canceled.
	Error string `json:"error,omitempty"`
}

// JobList is the body of GET /v1/runs.
type JobList struct {
	Jobs []JobStatus `json:"jobs"`
}

// SubmitResponse is the body of POST /v1/runs.
type SubmitResponse struct {
	Jobs []JobStatus `json:"jobs"`
}

// PredictorInfo is one row of GET /v1/predictors.
type PredictorInfo struct {
	Name         string `json:"name"`
	StorageBytes int    `json:"storage_bytes"`
}

// Health is the body of GET /healthz.
type Health struct {
	Status    string `json:"status"`
	Workers   int    `json:"workers"`
	QueueFree int    `json:"queue_free"`
}

// apiError is the JSON error envelope of every non-2xx response.
type apiError struct {
	Error string `json:"error"`
}
