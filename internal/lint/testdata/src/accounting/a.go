// Package accounting is the batchlint accounting fixture: only the
// audited allowlist may mutate History/overhead/lostWork or move a
// store-link timeline.
package accounting

type Job struct {
	History []int
}

type gang struct {
	overhead int
	lostWork int
}

type storeLink struct{ t int }

func (l *storeLink) reserveWrite(d int) int { l.t += d; return l.t }
func (l *storeLink) reserveRead(d int) int  { l.t += d; return l.t }
func (l *storeLink) releaseRead(d int)      { l.t -= d }

// storeLink owns its internal state: its methods may call the other
// mutators without an audit entry.
func (l *storeLink) rebalance(d int) { l.reserveRead(d) }

// Counters mirrors batch.Counters: the run's lost-work total lives
// behind an exported name.
type Counters struct {
	LostWork int
}

// JobTotals mirrors batch.JobTotals: the overhead of terminal jobs,
// folded in when the scheduler retires them.
type JobTotals struct {
	CheckpointOverhead int
}

// fold is on the audited allowlist: the one writer of the folded sum.
func (t *JobTotals) fold(g *gang) {
	t.CheckpointOverhead += g.overhead
}

type Scheduler struct {
	link *storeLink
	ctr  Counters
	tot  JobTotals
}

// refundRestore is on the audited allowlist: all three mutation kinds
// pass here.
func (s *Scheduler) refundRestore(j *Job, g *gang, seg int) {
	j.History = append(j.History, seg)
	g.overhead += seg
	s.ctr.LostWork += seg
	s.link.reserveWrite(seg)
}

func (s *Scheduler) sneakyCharge(g *gang, d int) {
	g.overhead += d     // want `sneakyCharge mutates the accounting ledger \(\.overhead\)`
	g.lostWork++        // want `sneakyCharge mutates the accounting ledger \(\.lostWork\)`
	s.ctr.LostWork += d // want `sneakyCharge mutates the accounting ledger \(\.LostWork\)`
}

// retire folds through the audited function and passes; topping the sum
// up beside it does not.
func (s *Scheduler) retire(g *gang) {
	s.tot.fold(g)
	s.tot.CheckpointOverhead += g.overhead // want `retire mutates the accounting ledger \(\.CheckpointOverhead\)`
}

func (s *Scheduler) sideChannel(d int) {
	s.link.releaseRead(d) // want `moves a store-link timeline \(releaseRead\)`
}

func trim(j *Job) {
	j.History = j.History[:0] // want `trim mutates the accounting ledger \(\.History\)`
}

func (s *Scheduler) refund(g *gang, d int) {
	//batchlint:allow accounting -- fixture: balance re-derived out of band
	g.overhead -= d
}
