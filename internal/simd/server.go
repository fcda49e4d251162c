package simd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"fvp"
	"fvp/internal/store"
)

// Handler returns the service's HTTP API:
//
//	POST   /v1/runs              submit one spec or {"runs":[...]}; ?wait=1 blocks
//	GET    /v1/runs              list jobs; ?state=queued|running|done|failed|canceled filters
//	GET    /v1/runs/{id}         job status + result (+ progress while running)
//	GET    /v1/runs/{id}/trace   the job's pipeline-trace artifact (submit with "trace":true)
//	DELETE /v1/runs/{id}         cancel a job
//	GET    /v1/workloads         the study list
//	GET    /v1/predictors        predictor configurations + storage budgets
//	GET    /v1/metrics           Prometheus text exposition
//	GET    /healthz              liveness + capacity (unversioned by convention)
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, s.Instrument(pattern, h))
	}
	route("POST /v1/runs", s.handleSubmit)
	route("GET /v1/runs", s.handleList)
	route("GET /v1/runs/{id}", s.handleGet)
	route("GET /v1/runs/{id}/trace", s.handleTrace)
	route("DELETE /v1/runs/{id}", s.handleCancel)
	route("GET /v1/workloads", s.handleWorkloads)
	route("GET /v1/predictors", s.handlePredictors)
	route("GET /v1/metrics", s.handleMetrics)
	route("GET /healthz", s.handleHealthz)
	return mux
}

// Instrument wraps the handler of route pattern endpoint so each request
// it answers is observed once, in the fvpd_request_seconds{path,outcome}
// latency histogram — the series a deployment reads its request counts,
// and its p50/p99 against the -slo-target, from. A request an outer
// Instrument already observes, such as one a cluster node's route hands
// on to this service's handler, passes straight through, so it is counted
// once, under the outer pattern.
func (s *Service) Instrument(endpoint string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, observed := w.(*statusRecorder); observed {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(rec, r)
		s.reqHist.With(`path=` + strconv.Quote(endpoint) + `,outcome="` + outcomeLabel(rec.code) + `"`).
			Observe(time.Since(start).Seconds())
	})
}

// statusRecorder captures the response code for the outcome label; a
// handler that never calls WriteHeader implicitly answered 200.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// outcomeLabel buckets a status code into the histogram's outcome label:
// server-side failures must not pollute the SLO series of successful
// requests, and client errors (quota 429s, bad specs) are neither.
func outcomeLabel(code int) string {
	switch {
	case code >= 500:
		return "server_error"
	case code >= 400:
		return "client_error"
	default:
		return "ok"
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

// ParseRuns decodes a POST /v1/runs body: either a single RunRequest
// object or a batch envelope {"runs":[...]}. legacy reports whether any
// request spells its sampling plan with the deprecated flat sample_*
// fields instead of the nested "sampling" block, so callers can signal
// deprecation on the response.
func ParseRuns(raw []byte) (reqs []RunRequest, legacy bool, err error) {
	var batch struct {
		Runs []RunRequest `json:"runs"`
	}
	if err := json.Unmarshal(raw, &batch); err == nil && batch.Runs != nil {
		reqs = batch.Runs
	} else {
		var one RunRequest
		if err := json.Unmarshal(raw, &one); err != nil {
			return nil, false, errors.New("simd: body must be a run spec or {\"runs\":[...]}")
		}
		reqs = []RunRequest{one}
	}
	for _, r := range reqs {
		if r.Sampling == nil && r.flatSampling() {
			legacy = true
			break
		}
	}
	return reqs, legacy, nil
}

// MarkSamplingDeprecated stamps the RFC 8594-style deprecation signal
// for requests still using the flat sample_* fields.
func MarkSamplingDeprecated(h http.Header) {
	h.Set("Deprecation", "true")
	h.Set("Link", `</v1/runs>; rel="successor-version"; title="use the nested sampling{} block instead of flat sample_* fields"`)
}

// WriteSubmitError renders a SubmitBatch error with the API's status
// code and header conventions: 429 + Retry-After for per-tenant quota
// rejections, 503 + Retry-After for global backpressure and shutdown,
// 500 for durable-store refusals, 400 for validation errors.
func WriteSubmitError(w http.ResponseWriter, err error) {
	var qe *QuotaError
	switch {
	case errors.As(err, &qe):
		secs := int(qe.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		w.Header().Set("X-Fvpd-Tenant", qe.Tenant)
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrStore):
		// The durable store refused the enqueue; nothing was admitted for
		// this request and the client should not retry blindly.
		writeError(w, http.StatusInternalServerError, err)
	default:
		// Validation errors (unknown names, empty batch) are client errors.
		writeError(w, http.StatusBadRequest, err)
	}
}

// AwaitBatch blocks until every submitted job in statuses finishes,
// returning their final states. A ctx cancellation (client disconnect)
// cancels the not-yet-finished jobs and returns the ctx error.
func (s *Service) AwaitBatch(ctx context.Context, statuses []JobStatus) ([]JobStatus, error) {
	for i, st := range statuses {
		final, err := s.Wait(ctx, st.ID)
		statuses[i] = final
		if err != nil {
			for _, rest := range statuses[i+1:] {
				s.Cancel(rest.ID)
			}
			return statuses, err
		}
	}
	return statuses, nil
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	reqs, legacy, err := ParseRuns(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if legacy {
		MarkSamplingDeprecated(w.Header())
	}
	statuses, err := s.SubmitBatched(reqs)
	if err != nil {
		WriteSubmitError(w, err)
		return
	}

	if r.URL.Query().Get("wait") == "" {
		writeJSON(w, http.StatusAccepted, SubmitResponse{Jobs: statuses})
		return
	}
	// Wait mode: block until every job finishes. A client disconnect
	// cancels the request context, which cancels the waited-on jobs —
	// and with them any simulation nobody else is interested in.
	statuses, err = s.AwaitBatch(r.Context(), statuses)
	if err != nil {
		return // client is gone; nothing to write
	}
	writeJSON(w, http.StatusOK, SubmitResponse{Jobs: statuses})
}

// listStates are the values accepted by GET /v1/runs?state=.
var listStates = map[string]State{
	"queued":   StateQueued,
	"running":  StateRunning,
	"done":     StateDone,
	"failed":   StateFailed,
	"canceled": StateCanceled,
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	var filter State
	if q := r.URL.Query().Get("state"); q != "" {
		st, ok := listStates[q]
		if !ok {
			writeError(w, http.StatusBadRequest,
				errors.New("simd: state must be one of queued|running|done|failed|canceled"))
			return
		}
		filter = st
	}
	writeJSON(w, http.StatusOK, JobList{Jobs: s.List(filter)})
}

func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	rc, err := s.OpenArtifact(r.PathValue("id"), "trace")
	switch {
	case err == nil:
	case errors.Is(err, store.ErrNotFound):
		writeError(w, http.StatusNotFound, errors.New("simd: no trace for this job"))
		return
	default:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/json")
	io.Copy(w, rc)
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("simd: no such job"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.Cancel(id) {
		st, _ := s.Get(id)
		writeJSON(w, http.StatusOK, st)
		return
	}
	if st, ok := s.Get(id); ok {
		// Already terminal: canceling is a no-op, report current state.
		writeJSON(w, http.StatusConflict, st)
		return
	}
	writeError(w, http.StatusNotFound, errors.New("simd: no such job"))
}

func (s *Service) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, fvp.Workloads())
}

func (s *Service) handlePredictors(w http.ResponseWriter, r *http.Request) {
	ps := fvp.Predictors()
	out := make([]PredictorInfo, len(ps))
	for i, p := range ps {
		bytes, _ := fvp.StorageBytes(p)
		out[i] = PredictorInfo{Name: string(p), StorageBytes: bytes}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Health{
		Status:    "ok",
		Workers:   s.Workers(),
		QueueFree: s.QueueFree(),
	})
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.WriteMetrics(w)
}
