package simd

import (
	"bytes"
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

// WriteError writes the API's JSON error envelope, {"error":"..."}, with
// status code.
func WriteError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

// ParseRuns decodes a POST /v1/runs body: either a single RunRequest
// object or a batch envelope {"runs":[...]}. legacy reports whether any
// request spells its sampling plan with the deprecated flat sample_*
// fields instead of the nested "sampling" block, so callers can signal
// deprecation on the response.
//
// One decode reads both forms. A body it cannot read, such as a "runs"
// of the wrong type beside valid spec fields, is read again as first the
// envelope and then a single spec, so every body keeps the meaning and
// the error that those two decodes alone give it.
func ParseRuns(raw []byte) (reqs []RunRequest, legacy bool, err error) {
	var body struct {
		Runs []RunRequest `json:"runs"`
		RunRequest
	}
	switch {
	case json.Unmarshal(raw, &body) != nil:
		if reqs, err = parseRunsTwoPass(raw); err != nil {
			return nil, false, err
		}
	case body.Runs != nil:
		reqs = body.Runs
	default:
		reqs = []RunRequest{body.RunRequest}
	}
	for _, r := range reqs {
		if r.Sampling == nil && r.flatSampling() {
			legacy = true
			break
		}
	}
	return reqs, legacy, nil
}

// parseRunsTwoPass reads a body that ParseRuns' single decode could not:
// as the envelope if that decodes with "runs" set, else as one spec.
func parseRunsTwoPass(raw []byte) ([]RunRequest, error) {
	var batch struct {
		Runs []RunRequest `json:"runs"`
	}
	if err := json.Unmarshal(raw, &batch); err == nil && batch.Runs != nil {
		return batch.Runs, nil
	}
	var one RunRequest
	if err := json.Unmarshal(raw, &one); err != nil {
		return nil, errors.New("simd: body must be a run spec or {\"runs\":[...]}")
	}
	return []RunRequest{one}, nil
}

// ReadSubmit reads a POST /v1/runs body and keys every request in it.
// A body in the deprecated flat sampling form gets the RFC 8594-style
// Deprecation and Link headers. A body that does not read, parse or key —
// an empty batch or any invalid request — is answered here with 400 and
// ok false, before any of its requests reaches a service or a peer.
func ReadSubmit(w http.ResponseWriter, r *http.Request) (ks []Keyed, ok bool) {
	raw, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return nil, false
	}
	reqs, legacy, err := ParseRuns(raw)
	if legacy {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", `</v1/runs>; rel="successor-version"; title="use the nested sampling{} block instead of flat sample_* fields"`)
	}
	if err == nil {
		ks, err = KeyRuns(reqs)
	}
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return nil, false
	}
	return ks, true
}

// WriteSubmitError renders a Submit error with the API's status code and
// header conventions: 429 + Retry-After for per-tenant quota rejections,
// 503 + Retry-After for global backpressure and shutdown, 500 for
// durable-store refusals, 400 for anything else.
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
		WriteError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrStore):
		// The durable store refused the enqueue; nothing was admitted for
		// this request and the client should not retry blindly.
		WriteError(w, http.StatusInternalServerError, err)
	default:
		WriteError(w, http.StatusBadRequest, err)
	}
}

// Answer is a submit's answer for keyed requests: it admits them through
// Submit, in wait mode waits for every job to finish, and returns each
// job's status encoded as an element of the {"jobs":[...]} body. An
// admission error is the answer to write (WriteSubmitError renders it).
// A ctx cancellation mid-wait means the client hung up: the jobs not yet
// finished are canceled, with any simulation nobody else waits on.
func (s *Service) Answer(ctx context.Context, ks []Keyed, wait bool) ([]json.RawMessage, error) {
	statuses, err := s.Submit(ks)
	if err == nil && wait {
		err = s.await(ctx, statuses)
	}
	if err != nil {
		return nil, err
	}
	jobs := make([]json.RawMessage, len(statuses))
	for i, st := range statuses {
		if jobs[i], err = json.Marshal(st); err != nil {
			return nil, fmt.Errorf("%w: encoding job %s: %v", ErrStore, st.ID, err)
		}
	}
	return jobs, nil
}

// await replaces each status with its job's final one. On a ctx
// cancellation it cancels the jobs not yet waited on and returns the ctx
// error.
func (s *Service) await(ctx context.Context, statuses []JobStatus) error {
	for i, st := range statuses {
		final, err := s.Wait(ctx, st.ID)
		statuses[i] = final
		if err != nil {
			for _, rest := range statuses[i+1:] {
				s.Cancel(rest.ID)
			}
			return err
		}
	}
	return nil
}

// WriteJobs writes a submit's 2xx answer, {"jobs":[...]} of the encoded
// job elements in request order: 200 in wait mode, 202 otherwise. The
// body is byte for byte what json.Encoder writes for a SubmitResponse of
// those jobs.
func WriteJobs(w http.ResponseWriter, wait bool, jobs []json.RawMessage) {
	body := []byte(`{"jobs":[`)
	for i, job := range jobs {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, job...)
	}
	code := http.StatusAccepted
	if wait {
		code = http.StatusOK
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(body, "]}\n"...))
}

// SplitJobs splits a submit answer, {"jobs":[...]} as WriteJobs writes
// it, into its job elements without decoding them: one pass that tracks
// strings and nesting and cuts at the array's own commas. It returns nil
// for a body of any other shape, an unclosed string or bracket, or an
// element that is not an object.
func SplitJobs(body []byte) []json.RawMessage {
	rest, prefixed := bytes.CutPrefix(bytes.TrimSpace(body), []byte(`{"jobs":[`))
	rest, suffixed := bytes.CutSuffix(rest, []byte(`]}`))
	if !prefixed || !suffixed {
		return nil
	}
	var elems []json.RawMessage
	depth, start := 0, 0
	inString, escaped := false, false
	for i, c := range rest {
		switch {
		case escaped:
			escaped = false
		case inString:
			escaped = c == '\\'
			inString = c != '"'
		case c == '"':
			inString = true
		case c == '{' || c == '[':
			depth++
		case c == '}' || c == ']':
			if depth--; depth < 0 {
				return nil
			}
		case c == ',' && depth == 0:
			elems = append(elems, rest[start:i])
			start = i + 1
		}
	}
	if inString || depth != 0 {
		return nil
	}
	elems = append(elems, rest[start:])
	for _, el := range elems {
		if len(el) < 2 || el[0] != '{' || el[len(el)-1] != '}' {
			return nil
		}
	}
	return elems
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	ks, ok := ReadSubmit(w, r)
	if !ok {
		return
	}
	wait := r.URL.Query().Get("wait") != ""
	jobs, err := s.Answer(r.Context(), ks, wait)
	switch {
	case r.Context().Err() != nil:
		// The client is gone; nothing to write.
	case err != nil:
		WriteSubmitError(w, err)
	default:
		WriteJobs(w, wait, jobs)
	}
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
			WriteError(w, http.StatusBadRequest,
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
		WriteError(w, http.StatusNotFound, errors.New("simd: no trace for this job"))
		return
	default:
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/json")
	io.Copy(w, rc)
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, errors.New("simd: no such job"))
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
	WriteError(w, http.StatusNotFound, errors.New("simd: no such job"))
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
