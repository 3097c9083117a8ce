// Package server puts an HTTP+JSON front door on the batch engine:
// the submit/cancel/query workflow of a Slurm-style cluster front-end,
// served live from the incremental scheduler core. Endpoints:
//
//	POST   /v1/jobs      submit a job spec        -> 201 + job view
//	DELETE /v1/jobs/{id} cancel a job             -> 200 + job view
//	GET    /v1/jobs/{id} one job, with explain    -> 200 + job view
//	GET    /v1/queue     live queue snapshot      -> 200 + queue view
//	GET    /metrics      Prometheus registry      -> 200 text/plain
//
// Authentication is bearer-token per user (Config.Tokens); with no
// tokens configured the server runs open and attributes jobs to the
// X-User header. Admission control enforces per-user quotas — max
// queued-or-running jobs and max committed node-seconds — at ingest,
// answering 429 when a submit would exceed them. Cancel is owner-only
// under token auth. Graceful drain: Shutdown stops the listener, stops
// the engine pump, runs every event already due, and returns the final
// report.
//
// The daemon is observable by default at a memory cost that does not
// grow with uptime: explain is served from the scheduler's per-job
// blocked-pass counters, and the default recorder is a
// batch.RingRecorder holding the most recent batch.RingCapacity
// lifecycle events. A full event stream (replay, Perfetto) is an
// explicit choice: set Config.Batch.Recorder to a batch.MemRecorder.
// The listener bounds what a client can hold open: header, request and
// idle timeouts, and a 1 MiB cap on a submit body.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpucluster/internal/batch"
)

// Quota bounds one user's live footprint at admission.
type Quota struct {
	// MaxQueued caps the user's queued-or-running jobs; <= 0 means
	// unlimited.
	MaxQueued int
	// MaxNodeSeconds caps the user's committed nodes x remaining-
	// estimate seconds; <= 0 means unlimited.
	MaxNodeSeconds float64
}

// unlimited reports whether the quota never rejects.
func (q Quota) unlimited() bool { return q.MaxQueued <= 0 && q.MaxNodeSeconds <= 0 }

// Config assembles a server.
type Config struct {
	// Batch configures the scheduler core. Cluster is required. A nil
	// Recorder gets a bounded batch.RingRecorder attached (any recorder
	// switches on the counters the explain endpoint reads; this one
	// keeps only a fixed tail of lifecycle events). A recorder set here,
	// such as a batch.MemRecorder, receives the full stream, EvBlocked
	// included, and grows with it. A nil Metrics gets a fresh Registry
	// (the /metrics endpoint serves it).
	Batch batch.Config
	// Clock drives the engine; nil selects a wall clock at Compress.
	Clock batch.Clock
	// Compress is the wall-clock time-compression factor used when
	// Clock is nil; <= 0 means 1 (real time).
	Compress float64
	// Tokens maps bearer token -> user. Empty means open mode: no
	// Authorization required, the X-User header names the submitter.
	Tokens map[string]string
	// Quota is the default per-user admission bound; the zero value is
	// unlimited.
	Quota Quota
	// UserQuotas overrides Quota for specific users.
	UserQuotas map[string]Quota
}

// Server owns an engine and serves the HTTP front door. Create with
// New, then Serve/ListenAndServe; Shutdown drains gracefully.
type Server struct {
	cfg   Config
	eng   *batch.Engine
	reg   *batch.Registry
	clock batch.Clock
	epoch time.Time
	mux   *http.ServeMux
	http  *http.Server
	// readHeaderTimeout is the package constant; a field so that the
	// slow-client test need not wait it out.
	readHeaderTimeout time.Duration

	admit sync.Mutex // serializes quota check + ingest (no overshoot)

	mu       sync.Mutex
	submitW  map[int]time.Time // job -> wall instant the submit was accepted
	dispatch map[int]time.Time // job -> wall instant of first dispatch
}

// New validates cfg and returns an unstarted server.
func New(cfg Config) *Server {
	if cfg.Batch.Metrics == nil {
		cfg.Batch.Metrics = batch.NewRegistry()
	}
	s := &Server{
		cfg:      cfg,
		reg:      cfg.Batch.Metrics,
		epoch:    time.Now(),
		submitW:  make(map[int]time.Time),
		dispatch: make(map[int]time.Time),

		readHeaderTimeout: readHeaderTimeout,
	}
	// The dispatch tap wraps whatever recorder the config carries (a
	// RingRecorder by default: explain counts need one attached, not
	// its stream), stamping each job's first dispatch with wall time —
	// the other half of the submit→dispatch latency the slam client
	// reports.
	var inner batch.Recorder = cfg.Batch.Recorder
	if inner == nil {
		inner = &batch.RingRecorder{}
	}
	s.cfg.Batch.Recorder = &dispatchTap{inner: inner, srv: s}
	s.clock = cfg.Clock
	if s.clock == nil {
		s.clock = batch.NewWallClock(cfg.Compress)
	}
	s.eng = batch.NewEngine(s.cfg.Batch, s.clock)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/queue", s.handleQueue)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// dispatchTap forwards every event to the inner recorder and stamps
// first dispatches with wall time. Record runs under the engine lock,
// so the map mutex only guards against concurrent HTTP readers.
type dispatchTap struct {
	inner batch.Recorder
	srv   *Server
}

func (t *dispatchTap) Record(ev batch.Event) {
	if ev.Kind == batch.EvDispatch {
		t.srv.mu.Lock()
		if _, seen := t.srv.dispatch[ev.Job]; !seen {
			t.srv.dispatch[ev.Job] = time.Now()
		}
		t.srv.mu.Unlock()
	}
	t.inner.Record(ev)
}

// Events lets the engine's report see through the tap.
func (t *dispatchTap) Events() []batch.Event {
	if src, ok := t.inner.(interface{ Events() []batch.Event }); ok {
		return src.Events()
	}
	return nil
}

// Engine exposes the scheduler core (tests and in-process drivers).
func (s *Server) Engine() *batch.Engine { return s.eng }

// Handler returns the HTTP handler (for tests and custom servers).
func (s *Server) Handler() http.Handler { return s.mux }

// Listener bounds: how long a client may take over its headers, over a
// whole request, and between requests on a kept-alive connection, and
// how large a submit body may be.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
	maxSubmitBytes    = 1 << 20
)

// Serve starts the engine pump and serves HTTP on l until Shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.eng.Start()
	s.http = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: s.readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	err := s.http.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// ListenAndServe binds addr and calls Serve.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown gracefully drains: the listener stops accepting, in-flight
// requests finish (bounded by ctx), the pump halts, and every event
// already due runs. The returned report is the final schedule.
func (s *Server) Shutdown(ctx context.Context) (batch.Report, error) {
	var err error
	if s.http != nil {
		err = s.http.Shutdown(ctx)
	}
	return s.eng.Drain(), err
}

// JobSpec is the submit request body.
type JobSpec struct {
	Name string `json:"name,omitempty"`
	// Kind is the workload class: "lbm", "cg", or "pde" (default lbm).
	Kind  string `json:"kind,omitempty"`
	Nodes int    `json:"nodes"`
	// Priority orders the queue; higher runs first.
	Priority int `json:"priority,omitempty"`
	// EstSeconds is the walltime estimate in virtual seconds; 0 asks
	// the scheduler's estimator.
	EstSeconds float64 `json:"est_seconds,omitempty"`
	Steps      int     `json:"steps,omitempty"`
	// User is honored only in open mode (no Tokens) when no X-User
	// header names the submitter.
	User string `json:"user,omitempty"`
}

// BlockerView is one reason's share of a job's blocked passes.
type BlockerView struct {
	Reason string `json:"reason"`
	Passes int    `json:"passes"`
}

// ExplainView is the per-job blocked-pass breakdown.
type ExplainView struct {
	BlockedPasses int           `json:"blocked_passes"`
	Blockers      []BlockerView `json:"blockers,omitempty"`
}

// JobView is the JSON rendering of one job's status. Virtual instants
// are milliseconds on the engine timeline; wall stamps are
// milliseconds since the server's start.
type JobView struct {
	ID             int          `json:"id"`
	Name           string       `json:"name,omitempty"`
	User           string       `json:"user,omitempty"`
	Kind           string       `json:"kind"`
	Nodes          int          `json:"nodes"`
	Priority       int          `json:"priority,omitempty"`
	State          string       `json:"state"`
	SubmitMS       float64      `json:"submit_virtual_ms"`
	StartMS        float64      `json:"start_virtual_ms,omitempty"`
	EndMS          float64      `json:"end_virtual_ms,omitempty"`
	WaitMS         float64      `json:"wait_virtual_ms,omitempty"`
	EstMS          float64      `json:"est_virtual_ms,omitempty"`
	Preemptions    int          `json:"preemptions,omitempty"`
	TimeSlices     int          `json:"time_slices,omitempty"`
	Detail         string       `json:"detail,omitempty"`
	SubmitWallMS   float64      `json:"submit_wall_ms,omitempty"`
	DispatchWallMS float64      `json:"dispatch_wall_ms,omitempty"`
	Explain        *ExplainView `json:"explain,omitempty"`
}

// QueueView is the JSON rendering of the live queue snapshot.
type QueueView struct {
	NowMS    float64   `json:"now_virtual_ms"`
	Queued   int       `json:"queued"`
	Running  int       `json:"running"`
	Finished int       `json:"finished"`
	Jobs     []JobView `json:"jobs"`
}

type errorView struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorView{Error: fmt.Sprintf(format, args...)})
}

// user resolves the requesting principal. With tokens configured a
// valid bearer token is required; open mode trusts X-User (then the
// spec's user field for submits).
func (s *Server) user(r *http.Request) (string, bool) {
	if len(s.cfg.Tokens) == 0 {
		return r.Header.Get("X-User"), true
	}
	auth := r.Header.Get("Authorization")
	tok, ok := strings.CutPrefix(auth, "Bearer ")
	if !ok {
		return "", false
	}
	u, ok := s.cfg.Tokens[tok]
	return u, ok
}

// quotaFor returns the admission bound applying to user.
func (s *Server) quotaFor(user string) Quota {
	if q, ok := s.cfg.UserQuotas[user]; ok {
		return q
	}
	return s.cfg.Quota
}

func parseKind(k string) (batch.JobKind, error) {
	switch k {
	case "", "lbm":
		return batch.KindLBM, nil
	case "cg":
		return batch.KindCG, nil
	case "pde":
		return batch.KindPDE, nil
	}
	return 0, fmt.Errorf("unknown kind %q (want lbm, cg, or pde)", k)
}

func (s *Server) jobView(st batch.JobStatus) JobView {
	v := JobView{
		ID:          st.ID,
		Name:        st.Name,
		User:        st.User,
		Kind:        st.Kind.String(),
		Nodes:       st.Nodes,
		Priority:    st.Priority,
		State:       st.State.String(),
		SubmitMS:    float64(st.Submit) / float64(time.Millisecond),
		EstMS:       float64(st.Estimate) / float64(time.Millisecond),
		Preemptions: st.Preemptions,
		TimeSlices:  st.TimeSlices,
		Detail:      st.Detail,
	}
	if st.State != batch.Queued {
		v.StartMS = float64(st.Start) / float64(time.Millisecond)
		v.WaitMS = float64(st.Wait) / float64(time.Millisecond)
	}
	if st.End > 0 {
		v.EndMS = float64(st.End) / float64(time.Millisecond)
	}
	s.mu.Lock()
	if t, ok := s.submitW[st.ID]; ok {
		v.SubmitWallMS = float64(t.Sub(s.epoch)) / float64(time.Millisecond)
	}
	if t, ok := s.dispatch[st.ID]; ok {
		v.DispatchWallMS = float64(t.Sub(s.epoch)) / float64(time.Millisecond)
	}
	s.mu.Unlock()
	return v
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	user, ok := s.user(r)
	if !ok {
		writeError(w, http.StatusUnauthorized, "missing or unknown bearer token")
		return
	}
	var spec JobSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes)).Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, "bad job spec: %v", err)
		return
	}
	if user == "" {
		user = spec.User
	}
	kind, err := parseKind(spec.Kind)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if spec.Nodes <= 0 {
		writeError(w, http.StatusBadRequest, "job requests %d nodes", spec.Nodes)
		return
	}
	j := &batch.Job{
		Name:     spec.Name,
		Kind:     kind,
		Nodes:    spec.Nodes,
		Priority: spec.Priority,
		User:     user,
		Steps:    spec.Steps,
		Est:      time.Duration(spec.EstSeconds * float64(time.Second)),
	}
	// Quota check and ingest are one critical section: two concurrent
	// submits must not both pass a nearly-full quota.
	s.admit.Lock()
	if q := s.quotaFor(user); !q.unlimited() {
		load := s.eng.Load(user)
		if q.MaxQueued > 0 && load.Queued >= q.MaxQueued {
			s.admit.Unlock()
			writeError(w, http.StatusTooManyRequests, "user %q at max queued jobs (%d)", user, q.MaxQueued)
			return
		}
		if q.MaxNodeSeconds > 0 && load.NodeSeconds+nodeSeconds(j) > q.MaxNodeSeconds {
			s.admit.Unlock()
			writeError(w, http.StatusTooManyRequests, "user %q over node-seconds quota (%.0f of %.0f committed)",
				user, load.NodeSeconds, q.MaxNodeSeconds)
			return
		}
	}
	id, err := s.eng.Ingest(j)
	s.admit.Unlock()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.Lock()
	s.submitW[id] = time.Now()
	s.mu.Unlock()
	st, err := s.eng.JobStatus(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, s.jobView(st))
}

// nodeSeconds is the admission price of a spec: requested nodes times
// the declared estimate. A spec leaving the estimate to the scheduler
// prices only its gang width (1s floor) — the quota is a guard rail,
// not a billing system.
func nodeSeconds(j *batch.Job) float64 {
	est := j.Est.Seconds()
	if est < 1 {
		est = 1
	}
	return float64(j.Nodes) * est
}

func (s *Server) pathID(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad job id %q", r.PathValue("id"))
		return 0, false
	}
	return id, true
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	user, ok := s.user(r)
	if !ok {
		writeError(w, http.StatusUnauthorized, "missing or unknown bearer token")
		return
	}
	id, ok := s.pathID(w, r)
	if !ok {
		return
	}
	st, err := s.eng.JobStatus(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	if len(s.cfg.Tokens) > 0 && st.User != user {
		writeError(w, http.StatusForbidden, "job %d belongs to %q", id, st.User)
		return
	}
	if err := s.eng.Cancel(id); err != nil {
		code := http.StatusConflict
		if errors.Is(err, batch.ErrNoSuchJob) {
			code = http.StatusNotFound
		}
		writeError(w, code, "%v", err)
		return
	}
	st, err = s.eng.JobStatus(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.jobView(st))
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.user(r); !ok {
		writeError(w, http.StatusUnauthorized, "missing or unknown bearer token")
		return
	}
	id, ok := s.pathID(w, r)
	if !ok {
		return
	}
	st, err := s.eng.JobStatus(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	v := s.jobView(st)
	ev := &ExplainView{BlockedPasses: st.Blocked.BlockedPasses}
	for _, c := range st.Blocked.Counts {
		ev.Blockers = append(ev.Blockers, BlockerView{Reason: c.Reason.String(), Passes: c.Passes})
	}
	v.Explain = ev
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleQueue(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.user(r); !ok {
		writeError(w, http.StatusUnauthorized, "missing or unknown bearer token")
		return
	}
	qs := s.eng.Snapshot()
	qv := QueueView{
		NowMS:    float64(qs.Now) / float64(time.Millisecond),
		Queued:   qs.Queued,
		Running:  qs.Running,
		Finished: qs.Finished,
	}
	for _, st := range qs.Jobs {
		qv.Jobs = append(qv.Jobs, s.jobView(st))
	}
	writeJSON(w, http.StatusOK, qv)
}

// handleMetrics serves the registry in Prometheus text format. It is
// deliberately unauthenticated — the scrape path on real clusters.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.reg.WritePrometheus(w)
}
