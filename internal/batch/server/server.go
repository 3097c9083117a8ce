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
// A job answers on /v1/jobs/{id} while it is live and, once terminal,
// for as long as the ledger below keeps its record; after that GET and
// DELETE answer 404 with a message saying the job finished and has aged
// out, distinct from the 404 of an ID never assigned. DELETE on a
// terminal job whose record is still kept is 409, as it always was.
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
// grow with uptime, for events and for jobs. Events: explain is served
// from the scheduler's per-job blocked-pass counters, and the default
// recorder is a batch.RingRecorder holding the most recent
// batch.RingCapacity lifecycle events. A full event stream (replay,
// Perfetto) is an explicit choice: set Config.Batch.Recorder to a
// batch.MemRecorder. Jobs: New asks the engine to retire terminal jobs
// (batch.Engine.RetireTo), so the scheduler holds the live ones only; a
// job that ends leaves its final batch.Record and wall stamps —
// everything a job view renders — in a ledger of at most
// batch.LedgerCapacity entries, overwritten oldest first, and the final
// report's totals still count every job (batch.JobTotals) while it
// lists those the ledger holds. Per-job state is therefore at most live jobs +
// batch.LedgerCapacity entries in every container the daemon owns.
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
// New, then Serve; Shutdown drains gracefully.
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

	book jobBook // the server's own per-job state
}

// New validates cfg and returns an unstarted server.
func New(cfg Config) *Server {
	if cfg.Batch.Metrics == nil {
		cfg.Batch.Metrics = batch.NewRegistry()
	}
	s := &Server{
		cfg:   cfg,
		reg:   cfg.Batch.Metrics,
		epoch: time.Now(),
		book:  jobBook{live: make(map[int]wallStamps), slot: make(map[int]int)},

		readHeaderTimeout: readHeaderTimeout,
	}
	// The stamp tap wraps whatever recorder the config carries (a
	// RingRecorder by default: explain counts need one attached, not
	// its stream), stamping each job's submit and first dispatch with
	// wall time — the two ends of the submit→dispatch latency the slam
	// client reports.
	var inner batch.Recorder = cfg.Batch.Recorder
	if inner == nil {
		inner = &batch.RingRecorder{}
	}
	s.cfg.Batch.Recorder = &stampTap{inner: inner, book: &s.book, epoch: s.epoch}
	s.clock = cfg.Clock
	if s.clock == nil {
		s.clock = batch.NewWallClock(cfg.Compress)
	}
	s.eng = batch.NewEngine(s.cfg.Batch, s.clock)
	// A daemon stays up: terminal jobs leave the scheduler for the ledger.
	s.eng.RetireTo(&s.book)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/queue", s.handleQueue)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// wallStamps are the two wall instants a job view carries beside the
// engine's virtual ones, as time since the server's epoch; zero means
// not yet.
type wallStamps struct {
	submit   time.Duration // the submit was accepted
	dispatch time.Duration // first dispatch
}

// jobRecord is everything a job view renders: the engine's record and
// the server's stamps. One is assembled per answer while the job is
// live; one is kept, in the ledger, once it has retired.
type jobRecord struct {
	batch.Record
	wallStamps
}

// jobBook is the server's own per-job state: the stamps of the jobs the
// scheduler still holds, and the ledger — the final record of each job
// it has retired, the most recent batch.LedgerCapacity of them, grown on
// demand to that many and then overwritten oldest first. The book is the
// engine's batch.Retirer, so a job moves from the one to the other in
// the same engine-locked step that makes the scheduler forget it, and
// every container here holds at most live jobs + batch.LedgerCapacity
// entries however long the daemon runs.
//
// The engine calls in with its own lock held (the recorder tap, Retire,
// Retained), so nothing here may call the engine. New makes the maps.
type jobBook struct {
	mu     sync.Mutex
	live   map[int]wallStamps // jobs the scheduler holds
	recs   []jobRecord        // the ledger, in retirement order from head, wrapping once full
	head   int                // once full: index of the oldest record
	slot   map[int]int        // retired job ID -> index in recs
	newest int                // the highest job ID assigned so far
}

// errAgedOut is the 404 of an ID that was a job: it finished, and the
// ledger has since given its record's place to a later one.
var errAgedOut = errors.New("finished, and its record has aged out of the daemon's ledger")

// find answers for one job ID given what the engine said of it: st when
// the scheduler holds the job, the ledger's record once it has retired,
// errAgedOut once the ledger has let go of it too, and the engine's own
// err (batch.ErrNoSuchJob) for an ID never assigned.
func (b *jobBook) find(id int, st batch.Record, err error) (jobRecord, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		if w, ok := b.live[id]; ok {
			return jobRecord{st, w}, nil
		}
		// Retired between the engine's answer and this lock: the ledger's
		// record is the later word, and it has the stamps.
	}
	if i, ok := b.slot[id]; ok {
		return b.recs[i], nil
	}
	if id >= 1 && id <= b.newest {
		return jobRecord{}, fmt.Errorf("job %d %w", id, errAgedOut)
	}
	return jobRecord{}, err
}

// stamps returns a live job's wall stamps, zero for any other ID.
func (b *jobBook) stamps(id int) wallStamps {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.live[id]
}

// Retire moves a job from the live map into the ledger, its stamps with
// it (batch.Retirer).
func (b *jobBook) Retire(final batch.Record) {
	b.mu.Lock()
	defer b.mu.Unlock()
	rec := jobRecord{final, b.live[final.ID]}
	delete(b.live, final.ID)
	if len(b.recs) < batch.LedgerCapacity {
		b.slot[rec.ID] = len(b.recs)
		b.recs = append(b.recs, rec)
		return
	}
	delete(b.slot, b.recs[b.head].ID)
	b.slot[rec.ID] = b.head
	b.recs[b.head] = rec
	b.head = (b.head + 1) % batch.LedgerCapacity
}

// Retained lists the ledger, oldest record first (batch.Retirer).
func (b *jobBook) Retained(yield func(batch.Record)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, rec := range b.recs[b.head:] {
		yield(rec.Record)
	}
	for _, rec := range b.recs[:b.head] {
		yield(rec.Record)
	}
}

// stampTap forwards every event to the inner recorder and stamps
// submits and first dispatches with wall time. Record runs under the
// engine lock, inside the Submit or the pass that caused the event, so a
// job's stamps are in the book before anything can retire it.
type stampTap struct {
	inner batch.Recorder
	book  *jobBook
	epoch time.Time
}

func (t *stampTap) Record(ev batch.Event) {
	switch b := t.book; ev.Kind {
	case batch.EvSubmit:
		b.mu.Lock()
		b.live[ev.Job] = wallStamps{submit: time.Since(t.epoch)}
		if ev.Job > b.newest {
			b.newest = ev.Job
		}
		b.mu.Unlock()
	case batch.EvDispatch:
		b.mu.Lock()
		if w := b.live[ev.Job]; w.dispatch == 0 { // the first dispatch wins
			w.dispatch = time.Since(t.epoch)
			b.live[ev.Job] = w
		}
		b.mu.Unlock()
	}
	t.inner.Record(ev)
}

// Events lets the engine's report see through the tap.
func (t *stampTap) Events() []batch.Event {
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

// record answers for one job ID: from the engine while the scheduler
// holds the job, from the ledger once it has retired (jobBook.find). An
// error is a 404, and says which: an ID never assigned, or a job whose
// record has aged out.
func (s *Server) record(id int) (jobRecord, error) {
	st, err := s.eng.JobStatus(id)
	return s.book.find(id, st, err)
}

// view renders a record; a job's view is the same bytes from the
// instant it turns terminal for as long as the ledger keeps it.
func (rec jobRecord) view() JobView {
	const ms = float64(time.Millisecond)
	v := JobView{
		ID:             rec.ID,
		Name:           rec.Name,
		User:           rec.User,
		Kind:           rec.Kind.String(),
		Nodes:          int(rec.Nodes),
		Priority:       rec.Priority,
		State:          rec.State.String(),
		SubmitMS:       float64(rec.Submit) / ms,
		EstMS:          float64(rec.Estimate) / ms,
		Preemptions:    int(rec.Preemptions),
		TimeSlices:     int(rec.TimeSlices),
		Detail:         rec.Detail,
		SubmitWallMS:   float64(rec.submit) / ms,
		DispatchWallMS: float64(rec.dispatch) / ms,
	}
	if rec.State != batch.Queued {
		v.StartMS = float64(rec.Start) / ms
		v.WaitMS = float64(rec.Wait()) / ms
	}
	if rec.End > 0 {
		v.EndMS = float64(rec.End) / ms
	}
	return v
}

// viewWithExplain is view plus the blocked-pass breakdown, present even
// when empty: what GET /v1/jobs/{id} answers.
func (rec jobRecord) viewWithExplain() JobView {
	v, e := rec.view(), rec.Explain()
	v.Explain = &ExplainView{BlockedPasses: e.BlockedPasses}
	for _, c := range e.Counts {
		v.Explain.Blockers = append(v.Explain.Blockers, BlockerView{Reason: c.Reason.String(), Passes: c.Passes})
	}
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
	// An estimate the conversion would change is refused: a negative one,
	// one past the longest Duration (it would wrap negative and leave the
	// job to the estimator), and one below the scheduler's 1 ms floor.
	est := spec.EstSeconds * float64(time.Second)
	if est != 0 && !(est >= float64(time.Millisecond) && est < float64(batch.Forever)) {
		writeError(w, http.StatusBadRequest, "est_seconds %g: want 0 (the scheduler estimates) or 0.001 to %.4g",
			spec.EstSeconds, batch.Forever.Seconds())
		return
	}
	j := &batch.Job{
		Name:     spec.Name,
		Kind:     kind,
		Nodes:    spec.Nodes,
		Priority: spec.Priority,
		User:     user,
		Steps:    spec.Steps,
		Est:      time.Duration(est),
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
	rec, err := s.record(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, rec.view())
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

// pathID parses the {id} path segment. An ID has one spelling, the one
// the daemon printed: "007" and "+7" are 400s, not job 7.
func (s *Server) pathID(w http.ResponseWriter, r *http.Request) (int, bool) {
	raw := r.PathValue("id")
	id, err := strconv.Atoi(raw)
	if err != nil || strconv.Itoa(id) != raw {
		writeError(w, http.StatusBadRequest, "bad job id %q", raw)
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
	rec, err := s.record(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	if len(s.cfg.Tokens) > 0 && rec.User != user {
		writeError(w, http.StatusForbidden, "job %d belongs to %q", id, rec.User)
		return
	}
	switch err := s.eng.Cancel(id); {
	case err == nil:
	case errors.Is(err, batch.ErrNoSuchJob):
		// The scheduler has retired the job the lookup found: it is
		// terminal, the conflict it always was — unless its record has
		// left the ledger too in the meantime.
		if rec, err = s.record(id); err != nil {
			writeError(w, http.StatusNotFound, "%v", err)
			return
		}
		writeError(w, http.StatusConflict, "batch: %v: job %d is %s", batch.ErrJobTerminal, id, rec.State)
		return
	default:
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	if rec, err = s.record(id); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, rec.view())
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
	rec, err := s.record(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, rec.viewWithExplain())
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
		qv.Jobs = append(qv.Jobs, jobRecord{st, s.book.stamps(st.ID)}.view())
	}
	writeJSON(w, http.StatusOK, qv)
}

// handleMetrics serves the registry in Prometheus text format. It is
// deliberately unauthenticated — the scrape path on real clusters.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.reg.WritePrometheus(w)
}
