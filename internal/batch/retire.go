package batch

// Terminal-job retirement. A scheduler built for a study keeps every
// job it ever ran: the report lists them and the caller reads them. A
// scheduler inside a long-running service cannot — one entry a job for
// ever is a leak with a long fuse — so a front door that means to stay
// up hands the engine a Retirer (Engine.RetireTo). From then on a job
// that reaches Done, Failed or Canceled is folded into the scheduler's
// running JobTotals, its final Record is handed over, and the scheduler
// forgets it: no byID entry, no place in finished, no counter row. What
// the scheduler holds is then the live jobs alone, and what a report
// says of the forgotten ones comes from the totals, which never forget.
//
// Nothing else selects the behaviour — no Config field, flag or
// environment variable: server.New asks for it, the one-shot front
// doors never do, and a scheduler nobody asked pays one nil test per
// terminal job (finish).

// A Retirer takes over the terminal jobs of a scheduler that forgets
// them. Both methods are called with the engine's lock held and must
// not call back into the engine.
type Retirer interface {
	// Retire receives the final record — blocked-pass row included,
	// exactly as Engine.JobStatus would have answered at that instant — of
	// a job that has just reached a terminal state and that the scheduler
	// will not know again.
	Retire(final Record)
	// Retained calls yield with each final record still held, oldest
	// retirement first: the jobs a report lists (Report.Jobs).
	Retained(yield func(Record))
}

// RetireTo makes the engine forget each job as it reaches a terminal
// state, handing its final Record to r; jobs already terminal are
// retired on the spot, in completion order, so with a Retirer set the
// scheduler holds live jobs only. A nil r stops retiring.
func (e *Engine) RetireTo(r Retirer) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.s
	if s.retirer = r; r == nil {
		return
	}
	for _, j := range s.finished {
		s.retire(j)
	}
	s.finished = nil
}

// job rebuilds a finished job from its final record, for the report of
// a scheduler that no longer holds the job itself: what the record
// carries, nothing else.
func (r Record) job() *Job {
	return &Job{
		ID:       r.ID,
		Name:     r.Name,
		Kind:     r.Kind,
		Nodes:    int(r.Nodes),
		Priority: r.Priority,
		User:     r.User,
		State:    r.State,
		Start:    r.Start,
		End:      r.End,
		Detail:   r.Detail,
		jobState: jobState{
			est:      r.Estimate,
			arrive:   r.Submit,
			preempts: r.Preemptions,
			slices:   r.TimeSlices,
		},
	}
}
