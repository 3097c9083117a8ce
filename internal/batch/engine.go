package batch

import (
	"sort"
	"sync"
	"time"
)

// Engine wraps the Scheduler's incremental core (Step/RunUntil/Cancel)
// behind a mutex and a Clock, turning the one-shot virtual-time
// simulator into a long-running service core: jobs are ingested and
// canceled at any moment, the event loop advances as far as the clock
// allows, and a background pump (Start/Stop) drives the loop from wall
// time with catch-up semantics — if the pump oversleeps, every missed
// event is processed in order, deterministically, exactly as the
// virtual-time replay would have.
//
// Under a VirtualClock the engine is the Scheduler with a lock: Run()
// drains everything instantly and reproduces the bit-for-bit replay
// results. Under a WallClock the same event loop advances only as far
// as scaled real time has reached, so arrivals land mid-run the way
// they do on a live cluster front-end.

// Clock supplies the engine's notion of "now" on the virtual timeline.
type Clock interface {
	// Now returns the current virtual instant. The engine processes
	// events up to and including it.
	Now() time.Duration
}

// VirtualClock is the simulation clock: it always reads Forever, so
// every queued event is due and the engine drains without waiting.
type VirtualClock struct{}

// Now implements Clock.
func (VirtualClock) Now() time.Duration { return Forever }

// WallClock maps real elapsed time onto the virtual timeline:
// virtual = (wall - epoch) * Compress. Compress > 1 runs the cluster
// faster than real time (a month-long trace in minutes); 1 is real
// time.
type WallClock struct {
	// Epoch is the wall instant of virtual zero.
	Epoch time.Time
	// Compress is the time-compression factor; <= 0 means 1.
	Compress float64
}

// NewWallClock starts a wall clock now at the given compression.
func NewWallClock(compress float64) *WallClock {
	return &WallClock{Epoch: time.Now(), Compress: compress}
}

// Now implements Clock.
func (c *WallClock) Now() time.Duration {
	f := c.Compress
	if f <= 0 {
		f = 1
	}
	return time.Duration(float64(time.Since(c.Epoch)) * f)
}

// Until returns the wall-clock wait from now until virtual instant v —
// how long the pump may sleep before v is due.
func (c *WallClock) Until(v time.Duration) time.Duration {
	f := c.Compress
	if f <= 0 {
		f = 1
	}
	d := v - c.Now()
	if d <= 0 {
		return 0
	}
	return time.Duration(float64(d) / f)
}

// Record is one job's status at an instant, compact enough to keep: what
// Engine.JobStatus and Engine.Snapshot answer, what a Retirer receives
// as a job leaves the scheduler, and what a daemon's ledger holds per
// retired job. It stores no fact another field derives: failure is
// State == Failed, the wait is Wait, and the blocked-pass explanation
// is built from the job's counter row on demand (Explain).
type Record struct {
	ID   int
	Name string
	User string
	// Detail carries the workload outcome of a terminal job.
	Detail   string
	Priority int
	// Submit, Start, and End are virtual instants; Start is zero until
	// the first dispatch, End until the job is terminal.
	Submit, Start, End time.Duration
	// Estimate is the resolved runtime estimate.
	Estimate time.Duration
	// blocked is a copy of the job's blocked-pass row, nil when the job
	// was never blocked.
	blocked *blockRow
	Nodes   int32
	// Preemptions and TimeSlices count suspensions so far.
	Preemptions, TimeSlices int32
	Kind                    JobKind
	State                   JobState
}

// Wait is the queue wait, Start − Submit, once the job has started (or
// was canceled before it could); zero before.
func (r Record) Wait() time.Duration {
	if r.Start < r.Submit {
		return 0
	}
	return r.Start - r.Submit
}

// Explain builds the job's blocked-pass explanation from its row.
func (r Record) Explain() Explanation { return explanationOf(r.blocked, r.ID) }

// QueueStatus summarizes the engine at an instant.
type QueueStatus struct {
	// Now is the engine's virtual clock position.
	Now time.Duration
	// Queued, Running, and Finished count jobs by lifecycle stage;
	// Finished is every job that ever reached a terminal state, retired
	// ones included.
	Queued, Running, Finished int
	// Jobs lists every non-terminal job, queued first (discipline
	// order), then running (completion order).
	Jobs []Record
}

// UserLoad is one user's live footprint, the admission-control input.
type UserLoad struct {
	// Queued counts the user's non-terminal jobs (queued or running).
	Queued int
	// NodeSeconds sums nodes x remaining-estimate over those jobs —
	// the work the user already has in flight.
	NodeSeconds float64
}

// Engine is safe for concurrent use.
type Engine struct {
	mu    sync.Mutex
	s     *Scheduler
	clock Clock

	// pump state (Start/Stop)
	kick chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

// NewEngine wraps a scheduler built from cfg. A nil clock selects the
// VirtualClock.
func NewEngine(cfg Config, clock Clock) *Engine {
	if clock == nil {
		clock = VirtualClock{}
	}
	return &Engine{s: New(cfg), clock: clock, kick: make(chan struct{}, 1)}
}

// catchUp advances the event loop to the clock. Under a VirtualClock
// (Now() == Forever) it is a no-op: virtual time is driven explicitly
// by Run/RunUntil/Step (or the pump), never as a side effect of an
// ingest or a query — that is what keeps the batch submit-then-Run
// pattern bit-for-bit identical through the facade. Callers hold e.mu.
func (e *Engine) catchUp() {
	if t := e.clock.Now(); t != Forever {
		e.s.RunUntil(t)
	}
}

// Ingest submits a job spec, stamping its arrival at the clock's
// current instant (a spec carrying a later Submit keeps it — a future
// arrival on the virtual timeline). It returns the assigned job ID.
func (e *Engine) Ingest(j *Job) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.catchUp()
	if now := e.clock.Now(); now != Forever && j.Submit < now {
		j.Submit = now
	}
	if err := e.s.Submit(j); err != nil {
		return 0, err
	}
	e.poke()
	return j.ID, nil
}

// Cancel withdraws a job (see Scheduler.Cancel for the lifecycle
// semantics), first catching the event loop up so the decision runs
// against current state.
func (e *Engine) Cancel(id int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.catchUp()
	err := e.s.Cancel(id)
	e.poke()
	return err
}

// Step advances one event (see Scheduler.Step).
func (e *Engine) Step() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.s.Step()
}

// RunUntil processes every event due at or before t.
func (e *Engine) RunUntil(t time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.s.RunUntil(t)
}

// Run drains the queue to completion and returns the report — the
// virtual-time entry point, bit-for-bit identical to Scheduler.Run.
func (e *Engine) Run() Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.s.Run()
}

// Report snapshots the current report without requiring the queue to
// be drained.
func (e *Engine) Report() Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.s.report()
}

// Now returns the engine's virtual clock position.
func (e *Engine) Now() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.s.Now()
}

// recordOf is the one constructor of a Record: what Engine.JobStatus
// answers for a job the scheduler holds and what a Retirer is handed
// when it stops holding it, so the two cannot differ. The row is copied:
// the scheduler goes on counting into the job's own while it is queued.
func recordOf(j *Job) Record {
	r := Record{
		ID:          j.ID,
		Name:        j.Name,
		User:        j.User,
		Detail:      j.Detail,
		Priority:    j.Priority,
		Submit:      j.arrive,
		Start:       j.Start,
		Estimate:    j.est,
		Nodes:       int32(j.Nodes),
		Preemptions: j.preempts,
		TimeSlices:  j.slices,
		Kind:        j.Kind,
		State:       j.State,
	}
	switch j.State {
	case Done, Failed, Canceled:
		r.End = j.End
	}
	if j.blocked != nil && *j.blocked != (blockRow{}) {
		row := *j.blocked
		r.blocked = &row
	}
	return r
}

// JobStatus returns a point-in-time view of one job, its blocked-pass
// row included. A job handed to a Retirer is ErrNoSuchJob here.
func (e *Engine) JobStatus(id int) (Record, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.catchUp()
	j, err := e.s.JobByID(id)
	if err != nil {
		return Record{}, err
	}
	return recordOf(j), nil
}

// Explain returns the blocked-pass breakdown for one job so far, read
// from its counter row — empty unless the engine's Config carried a
// Recorder.
func (e *Engine) Explain(id int) (Explanation, error) {
	r, err := e.JobStatus(id)
	return r.Explain(), err
}

// Snapshot summarizes the live queue: every non-terminal job, queued
// first in discipline order, then running in completion order.
func (e *Engine) Snapshot() QueueStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.catchUp()
	s := e.s
	qs := QueueStatus{
		Now:      s.now,
		Queued:   s.queued(),
		Running:  s.running.len(),
		Finished: s.tot.Finished + len(s.finished),
	}
	list := func(j *Job) { qs.Jobs = append(qs.Jobs, recordOf(j)) }
	// The future arrivals, sorted as the queue is, merge into its order.
	future := make([]*Job, len(s.arrivals))
	for i, a := range s.arrivals {
		future[i] = a.job
	}
	sort.Slice(future, func(i, k int) bool { return s.less(future[i], future[k]) })
	for _, j := range s.pending.ordered(s.less) {
		if j == nil {
			continue
		}
		for ; len(future) > 0 && s.less(future[0], j); future = future[1:] {
			list(future[0])
		}
		list(j)
	}
	for _, j := range future {
		list(j)
	}
	s.running.each(list)
	return qs
}

// Load returns one user's live footprint — queued-or-running job count
// and committed node-seconds — for quota admission at ingest. The sum
// runs over the queue's slots, then the future arrivals in heap order,
// then the running set in completion order: a float sum's order is part
// of the quota decision.
func (e *Engine) Load(user string) UserLoad {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.catchUp()
	var l UserLoad
	add := func(j *Job) {
		if j.User != user {
			return
		}
		l.Queued++
		l.NodeSeconds += float64(j.Nodes) * j.estLeft().Seconds()
	}
	e.s.eachQueued(add)
	e.s.running.each(add)
	return l
}

// poke wakes the pump (if running) so it re-reads the event horizon
// after an ingest or cancel changed it. Callers hold e.mu.
func (e *Engine) poke() {
	if e.done == nil {
		return
	}
	select {
	case e.kick <- struct{}{}:
	default:
	}
}

// Start launches the background pump: a goroutine that advances the
// event loop as the clock reaches each event, sleeping between events
// (wall-scaled when the clock is a *WallClock, a coarse poll
// otherwise) and waking early when Ingest or Cancel changes the
// horizon. Start is a no-op if the pump is already running.
func (e *Engine) Start() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done != nil {
		return
	}
	e.done = make(chan struct{})
	e.wg.Add(1)
	go e.pump(e.done)
}

// Stop halts the pump and waits for it to exit. The engine remains
// usable (Ingest/Cancel/queries still work; Start may be called
// again).
func (e *Engine) Stop() {
	e.mu.Lock()
	done := e.done
	e.done = nil
	e.mu.Unlock()
	if done == nil {
		return
	}
	close(done)
	e.wg.Wait()
}

// Drain stops the pump after first running every event already due —
// with a VirtualClock, the full remaining schedule — and returns the
// final report. The graceful-shutdown path for servers.
func (e *Engine) Drain() Report {
	e.Stop()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.catchUp()
	return e.s.report()
}

// pump is the wall-time driver loop.
func (e *Engine) pump(done chan struct{}) {
	defer e.wg.Done()
	const idlePoll = 50 * time.Millisecond
	for {
		e.mu.Lock()
		// Unlike catchUp, the pump drains a VirtualClock engine outright:
		// starting a pump is the explicit request to advance time.
		e.s.RunUntil(e.clock.Now())
		next, ok := e.s.nextEvent()
		e.mu.Unlock()
		sleep := idlePoll
		if ok {
			if wc, isWall := e.clock.(*WallClock); isWall {
				sleep = wc.Until(next)
			} else {
				sleep = 0
			}
		}
		if sleep <= 0 {
			// Horizon already due (or a virtual clock): yield briefly so
			// a tight loop cannot starve Ingest/Cancel of the lock.
			sleep = time.Millisecond
		}
		t := time.NewTimer(sleep)
		select {
		case <-done:
			t.Stop()
			return
		case <-e.kick:
			t.Stop()
		case <-t.C:
		}
	}
}
