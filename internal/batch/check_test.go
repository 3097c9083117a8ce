package batch

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// checkSchedule certifies one run in the manner of McConnell, Mehlhorn,
// Näher and Schweitzer, "Certifying algorithms" (Computer Science Review
// 5(2), 2011): it checks the run's outputs — the recorded events and the
// Report — against its inputs — the Config's cluster, fault plan, store
// duplex, trunk stretch and Actual hook, and the submitted jobs — and
// shares no code with the scheduler but FaultPlan.compile, which merges
// the plan's intervals into down windows. It folds the stream
// (scheduleCheck), so any prefix of a run is checkable. A violation
// names its clause:
//
//   - residency: no node holds two gangs at once, no segment overlaps a
//     down window the fault plan gives its node or, crossing the trunk,
//     an outage, each recorded fault is a planned window, and a fault end
//     has a fault that cut it;
//   - link: neither store-link direction is oversubscribed (HalfDuplex
//     is one timeline), and a restore reads no image before it is
//     written;
//   - memory: a node's running gang plus its resident host images fit
//     its MemBytes, and an image is released where the stream says;
//   - progress: a segment that runs to completion ends exactly when its
//     remaining work, stretched across the trunk, is done, a drain ends
//     when its transfer does, and each job's overhead and lost work are
//     the ones the stream implies;
//   - segments: a job's Segments are the ones the stream records, one
//     per slice, preemption, fault and bank plus the final one;
//   - terminal: one EvComplete per terminal job, and no event after it;
//   - report: NodeBusy, Counters, JobTotals and the figures derived from
//     them equal the fold;
//   - stream: events in time order, about submitted jobs, of known kinds.
//
// The scheduler floors a segment at 1 ms of wall time and a job at 1 ms
// of work; the fold applies the same floors, so every comparison is
// exact to the nanosecond.
func checkSchedule(cfg Config, jobs []*Job, events []Event, rep Report) error {
	byID := make(map[int]*Job, len(jobs))
	for _, j := range jobs {
		byID[j.ID] = j
	}
	c := newScheduleCheck(cfg, func(id int) *Job { return byID[id] })
	for _, ev := range events {
		c.Record(ev)
	}
	return c.finish(rep)
}

// newChecked is New with the run certified when the test ends: the
// events feed a scheduleCheck as the scheduler records them — and go on
// to any recorder cfg already names, which a test reads directly (the
// report copies no stream) — and at cleanup the fold must agree with the
// scheduler's report.
func newChecked(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	var s *Scheduler
	chk := newScheduleCheck(cfg, func(id int) *Job { return s.byID[id] })
	chk.next, cfg.Recorder = cfg.Recorder, chk
	s = New(cfg)
	t.Cleanup(func() {
		if err := chk.finish(s.report()); err != nil {
			t.Error(err)
		}
	})
	return s
}

// scheduleCheck is checkSchedule's fold: state per node, per link
// direction and per job, the job's open segment among it.
type scheduleCheck struct {
	cfg      Config
	spec     func(id int) *Job // the submitted job an EvSubmit names
	next     Recorder          // the test's own recorder, fed every event
	err      error             // the first violation; the fold stops there
	now      time.Duration
	pass     int // the last EvBlocked's pass
	nodes    []nodeFold
	link     [2]time.Duration // where the write and the read timeline free
	read     int              // the read timeline: 1, or 0 on a half-duplex link
	trunk    window           // the last trunk outage
	plan     map[int][]window // the fault plan's down windows per node, the trunk's at -1
	jobs     map[int]*jobFold
	migrated []jobPin      // home images held until their outbound write ends
	downTime time.Duration // closed down windows
	ctr      Counters
	tot      JobTotals
}

type window struct {
	from, to time.Duration
	open     bool
}

type nodeFold struct {
	holder       *jobFold
	pinned       int64 // host images resident
	freeAt, busy time.Duration
	down         window // the last down window
}

type jobPin struct {
	j     *jobFold
	nodes NodeRanges
	until time.Duration
}

type jobFold struct {
	nodes                           int
	user                            string
	mem                             int64
	state                           JobState
	started                         bool
	arrive, start, end              time.Duration
	work                            time.Duration // unstretched work left
	alloc                           Allocation    // the open segment's gang, then the last one
	stretch                         float64       // wall time per unit of work on alloc
	segStart, pre                   time.Duration // the open segment's start and restore prefix
	drain                           window        // the open segment's checkpoint drain
	drainKind, lastEnd              string        // details of the last drain and segment end
	readAvail, readTo, readWait     time.Duration // the restore: image in the store, booked end, queue wait
	image                           NodeRanges    // nodes a resident host image pins
	demoteTo                        time.Duration // >0 while the image is being demoted
	segs                            []Segment
	slices, preempts, faults, banks int
	overhead, lost                  time.Duration
}

func newScheduleCheck(cfg Config, spec func(int) *Job) *scheduleCheck {
	c := &scheduleCheck{cfg: cfg, spec: spec, nodes: make([]nodeFold, cfg.Cluster.Size()), read: 1,
		plan: map[int][]window{}, jobs: map[int]*jobFold{}, tot: JobTotals{UserNodeTime: map[string]time.Duration{}}}
	if cfg.StoreDuplex == HalfDuplex {
		c.read = 0
	}
	for _, f := range cfg.Faults.compile(len(c.nodes)) {
		if f.kind >= faultNodeDown {
			c.plan[f.node] = append(c.plan[f.node], window{from: f.at, to: f.until})
		}
	}
	return c
}

// planned returns the fault plan's down window of node (-1: the trunk)
// that overlaps [from, to), or the zero window, which ends at 0.
func (c *scheduleCheck) planned(node int, from, to time.Duration) window {
	ws := c.plan[node]
	if i := sort.Search(len(ws), func(i int) bool { return ws[i].to > from }); i < len(ws) && ws[i].from < to {
		return ws[i]
	}
	return window{}
}

func (c *scheduleCheck) fail(clause string, ev Event, format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%s: %v of job %d at %v: %s", clause, ev.Kind, ev.Job, ev.Time, fmt.Sprintf(format, args...))
	}
}

// Record folds one event and passes it on.
func (c *scheduleCheck) Record(ev Event) {
	if c.next != nil {
		c.next.Record(ev)
	}
	if c.err != nil {
		return
	}
	if ev.Time < c.now || ev.Kind == EvBlocked && (ev.Pass < c.pass || ev.Reason == ReasonNone) {
		c.fail("stream", ev, "after %v and pass %d, at pass %d for reason %v", c.now, c.pass, ev.Pass, ev.Reason)
		return
	}
	if ev.Kind == EvBlocked {
		c.pass = ev.Pass
		return
	}
	c.now = ev.Time
	kept := c.migrated[:0]
	for _, p := range c.migrated {
		if p.until > c.now {
			kept = append(kept, p)
		} else {
			c.pin(ev, p.nodes, -p.j.mem)
		}
	}
	c.migrated = kept
	j := c.jobs[ev.Job]
	switch {
	case ev.Kind >= EvNodeDown:
		c.fault(ev)
		return
	case ev.Kind == EvSubmit:
		c.submit(ev)
		return
	case j == nil:
		c.fail("stream", ev, "no such job was submitted")
		return
	case j.state >= Done && ev.Kind != EvDemoteEnd:
		c.fail("terminal", ev, "the job completed at %v", j.end)
		return
	}
	switch ev.Kind {
	case EvDispatch:
		c.dispatch(j, ev)
	case EvDrainBegin:
		if j.state != Running || j.drain.open || !slices.Equal(ev.Alloc, j.alloc.Ranges) {
			c.fail("progress", ev, "no undrained segment on %v", ev.Alloc)
			return
		}
		c.bank(j, ev.Time, false)
		j.drain, j.drainKind = window{ev.Time, ev.To, true}, ev.Detail
		j.overhead += ev.To - ev.Time
		switch {
		case ev.Detail == "bank":
		case strings.HasSuffix(ev.Detail, "slice"):
			c.ctr.SliceEvents++
		default:
			c.ctr.PreemptEvents++
		}
		if strings.HasPrefix(ev.Detail, "host") {
			c.ctr.HostSuspends++
		}
	case EvStoreWrite:
		c.transfer(0, ev)
		switch ev.Detail {
		case "demote":
			if ev.To != j.demoteTo {
				c.fail("link", ev, "the demotion ends at %v", j.demoteTo)
			}
		case "migrate":
			c.ctr.DrainWait += ev.From - ev.Time
			c.migrated = append(c.migrated, jobPin{j, j.image, ev.To})
			j.image, j.readAvail = nil, ev.To
		default:
			c.ctr.DrainWait += ev.From - ev.Time
			if !j.drain.open || ev.To != j.drain.to {
				c.fail("link", ev, "no drain ends at %v", ev.To)
			}
		}
	case EvStoreRead:
		if ev.Detail != "cancel" {
			c.transfer(c.read, ev)
			if ev.From < j.readAvail {
				c.fail("link", ev, "the restore reads from %v, the image is in the store at %v", ev.From, j.readAvail)
			}
			j.readWait, j.readTo = ev.From-j.readAvail, ev.To
			c.ctr.RestoreWait += j.readWait
			return
		}
		// A restore cut off: unserved queue wait is refunded, and the
		// untransferred tail frees if nothing booked behind it.
		if j.readTo == 0 || ev.To > j.readTo {
			c.fail("link", ev, "no booked restore to cancel")
			return
		}
		c.ctr.RestoreWait -= min(max(ev.From-ev.Time, 0), j.readWait)
		if c.link[c.read] == j.readTo {
			c.link[c.read] = max(ev.From, ev.Time)
		}
		j.readTo = 0
	case EvSegmentEnd:
		c.segmentEnd(j, ev)
	case EvRequeue:
		if j.state != Queued || j.lastEnd != "drain" && j.lastEnd != "fault" {
			c.fail("segments", ev, "requeued while %v after a %q end", j.state, j.lastEnd)
		}
		j.lastEnd = "requeue"
	case EvHostSuspend:
		if j.image != nil || j.state != Queued || !strings.HasPrefix(j.drainKind, "host") {
			c.fail("memory", ev, "no host drain to park")
			return
		}
		j.image = ev.Alloc
		c.pin(ev, j.image, j.mem)
	case EvDemoteBegin:
		if j.image == nil || j.demoteTo > 0 || !slices.Equal(ev.Alloc, j.image) {
			c.fail("memory", ev, "no resident image on %v to demote", ev.Alloc)
			return
		}
		j.demoteTo = ev.To
		c.ctr.Demotions++
		c.ctr.DemotionTime += ev.To - ev.From
	case EvDemoteEnd:
		if j.demoteTo == 0 || ev.Time < j.demoteTo {
			c.fail("memory", ev, "no demotion settles now")
			return
		}
		c.unpin(j)
	case EvComplete:
		c.complete(j, ev)
	}
}

func (c *scheduleCheck) submit(ev Event) {
	sp := c.spec(ev.Job)
	if sp == nil || c.jobs[ev.Job] != nil {
		c.fail("stream", ev, "not a fresh submission")
		return
	}
	if arrive := max(sp.Submit, ev.Time); ev.From != arrive {
		c.fail("stream", ev, "arrives at %v, submitted for %v at %v", ev.From, sp.Submit, ev.Time)
		return
	}
	work := sp.Estimate()
	if c.cfg.Actual != nil {
		work = max(c.cfg.Actual(sp, work), time.Millisecond)
	}
	c.jobs[ev.Job] = &jobFold{nodes: sp.Nodes, user: sp.User, mem: sp.memNeed, arrive: ev.From, work: work}
}

// pin adds bytes of resident image to each node of rs and checks its
// memory.
func (c *scheduleCheck) pin(ev Event, rs NodeRanges, bytes int64) {
	for _, i := range rs.Nodes() {
		c.nodes[i].pinned += bytes
		c.fits(ev, i)
	}
}

func (c *scheduleCheck) unpin(j *jobFold) {
	for _, i := range j.image.Nodes() {
		c.nodes[i].pinned -= j.mem
	}
	j.image, j.demoteTo = nil, 0
}

// fits checks node i's memory: the running gang plus the resident
// images. A gang that migrates onto a node still holding its own image
// (its home, until the outbound write ends) runs in that memory: the
// job's footprint counts once.
func (c *scheduleCheck) fits(ev Event, i int) {
	n := &c.nodes[i]
	used := n.pinned
	if h := n.holder; h != nil && !covers(h.image, i) {
		used += h.mem
		for _, p := range c.migrated {
			if p.j == h && covers(p.nodes, i) {
				used -= h.mem
			}
		}
	}
	if capacity := c.cfg.Cluster.Spec(i).MemBytes; used > capacity {
		c.fail("memory", ev, "node %d holds %d MB of %d MB", i, used>>20, capacity>>20)
	}
}

func covers(rs NodeRanges, i int) bool {
	for _, r := range rs {
		if i >= r.First && i < r.First+r.Count {
			return true
		}
	}
	return false
}

// transfer books ev on timeline d.
func (c *scheduleCheck) transfer(d int, ev Event) {
	if ev.From < ev.Time || ev.To < ev.From || ev.From < c.link[d] {
		c.fail("link", ev, "[%v,%v) overlaps a transfer to %v", ev.From, ev.To, c.link[d])
		return
	}
	c.link[d] = ev.To
}

func (c *scheduleCheck) dispatch(j *jobFold, ev Event) {
	if j.state != Queued || ev.Time < j.arrive || ev.From < ev.Time || j.lastEnd == "drain" || j.lastEnd == "fault" {
		c.fail("residency", ev, "dispatched while %v after a %q end, arrived %v, work from %v", j.state, j.lastEnd, j.arrive, ev.From)
		return
	}
	// A resident image resumes at home — "start" when the resume is
	// free — or migrates; anything else needs the image gone.
	migrate := strings.HasSuffix(ev.Detail, "migrate-restore")
	home := j.image != nil && !migrate
	if j.demoteTo > 0 || (migrate || strings.HasSuffix(ev.Detail, "host-resume")) && j.image == nil ||
		home && !slices.Equal(ev.Alloc, j.image) {
		c.fail("memory", ev, "a %q dispatch with image %v (demotion to %v)", ev.Detail, j.image, j.demoteTo)
		return
	}
	if home {
		c.unpin(j)
	}
	// The gang's trunk crossing follows from the switch geometry.
	a := Allocation{Ranges: ev.Alloc}
	for _, r := range ev.Alloc {
		a.Count += r.Count
	}
	if nb, rs := c.cfg.Cluster.Net().NonBlockingPorts, ev.Alloc; nb > 0 && nb < len(c.nodes) && len(rs) > 0 {
		a.CrossesTrunk = rs[0].First < nb && rs[len(rs)-1].First+rs[len(rs)-1].Count > nb
	}
	if j.stretch = 1; a.CrossesTrunk && c.cfg.TrunkSlowdown > 1 {
		j.stretch = c.cfg.TrunkSlowdown
	}
	if a.Count != j.nodes || a.CrossesTrunk && c.planned(-1, ev.Time, ev.Time+1).to > 0 {
		c.fail("residency", ev, "gang %v for %d nodes, across the trunk=%v", ev.Alloc, j.nodes, a.CrossesTrunk)
		return
	}
	for _, i := range ev.Alloc.Nodes() {
		n := &c.nodes[i]
		if c.planned(i, ev.Time, ev.Time+1).to > 0 {
			c.fail("residency", ev, "node %d is down", i)
		} else if n.holder != nil || n.freeAt > ev.Time {
			c.fail("residency", ev, "node %d is held, last released at %v", i, n.freeAt)
		}
		if c.err != nil {
			return
		}
		n.holder = j
		c.fits(ev, i)
	}
	if strings.HasPrefix(ev.Detail, "backfill") {
		c.ctr.Backfilled++
	}
	if !j.started {
		j.started, j.start = true, ev.Time
	}
	j.state, j.alloc, j.segStart, j.pre = Running, a, ev.Time, ev.From-ev.Time
	j.overhead += j.pre
	j.readAvail, j.readTo = ev.Time, 0
}

// bank settles the open segment's progress at t: the unelapsed restore
// is refunded, and the work since it is banked, or lost to a fault.
func (c *scheduleCheck) bank(j *jobFold, t time.Duration, lose bool) {
	elapsed := t - j.segStart - j.pre
	if elapsed < 0 {
		j.overhead += elapsed
		elapsed = 0
	}
	if lose {
		j.lost += elapsed
		c.ctr.LostWork += elapsed
		return
	}
	j.work -= min(time.Duration(float64(elapsed)/j.stretch), j.work)
}

func (c *scheduleCheck) segmentEnd(j *jobFold, ev Event) {
	if j.state != Running || ev.From != j.segStart || !slices.Equal(ev.Alloc, j.alloc.Ranges) {
		c.fail("segments", ev, "[%v,%v) on %v is not the open segment", ev.From, ev.To, ev.Alloc)
		return
	}
	// A fault end is cut by a fault recorded at its end.
	cut := j.alloc.CrossesTrunk && c.trunk.open && c.trunk.from == ev.To
	for _, i := range ev.Alloc.Nodes() {
		n := &c.nodes[i]
		if w := c.planned(i, ev.From, ev.To); w.to > 0 {
			c.fail("residency", ev, "node %d is planned down at %v", i, w.from)
		}
		cut = cut || n.down.open && n.down.from == ev.To
		n.busy += ev.To - ev.From
		n.freeAt = ev.To
	}
	if w := c.planned(-1, ev.From, ev.To); w.to > 0 && j.alloc.CrossesTrunk {
		c.fail("residency", ev, "the trunk is planned down at %v", w.from)
	}
	switch ev.Detail {
	case "run":
		want := j.segStart + max(j.pre+time.Duration(float64(j.work)*j.stretch), time.Millisecond)
		if j.drain.open || ev.To != want {
			c.fail("progress", ev, "ends at %v, its %v of work left ends it at %v", ev.To, j.work, want)
		}
		j.work = 0
	case "drain", "bank":
		if !j.drain.open || ev.To != j.drain.to || (ev.Detail == "bank") != (j.drainKind == "bank") {
			c.fail("progress", ev, "ends at %v, the drain %q at %v", ev.To, j.drainKind, j.drain.to)
		}
		switch {
		case ev.Detail == "bank":
			j.banks++
			c.ctr.Banks++
		case strings.HasSuffix(j.drainKind, "slice"):
			j.slices++
		default:
			j.preempts++
		}
	case "fault":
		if !cut {
			c.fail("residency", ev, "no node or trunk fault cut the gang")
		}
		if j.drain.open {
			j.overhead -= j.drain.to - ev.To
		} else {
			c.bank(j, ev.To, true)
		}
		j.faults++
		c.ctr.FaultKills++
	case "cancel":
		if j.drain.open {
			c.fail("progress", ev, "canceled mid-drain")
		}
		c.bank(j, ev.To, false)
	default:
		c.fail("stream", ev, "unknown end %q", ev.Detail)
	}
	j.segs = append(j.segs, Segment{Alloc: j.alloc, Start: ev.From, End: ev.To, Preempted: ev.Detail != "run"})
	j.lastEnd, j.drain = ev.Detail, window{}
	if ev.Detail == "bank" {
		j.segStart, j.pre = ev.To, 0 // the gang keeps its seat
		return
	}
	c.release(j)
}

func (c *scheduleCheck) release(j *jobFold) {
	for _, i := range j.alloc.Ranges.Nodes() {
		c.nodes[i].holder = nil
	}
	j.state = Queued
}

func (c *scheduleCheck) complete(j *jobFold, ev Event) {
	t := &c.tot
	switch ev.Detail {
	case "done", "failed":
		if j.state != Queued || j.lastEnd != "run" || j.segs[len(j.segs)-1].End != ev.Time {
			c.fail("terminal", ev, "%s without a run segment ending now", ev.Detail)
			return
		}
		j.state = Done
		if ev.Detail == "failed" {
			j.state = Failed
			t.Failed++
		} else {
			t.done++
		}
	case "canceled":
		if j.state == Running {
			if j.lastEnd != "bank" || j.segStart != ev.Time {
				c.fail("terminal", ev, "canceled while running")
				return
			}
			j.banks-- // a bank the cancel was waiting on frees the gang instead
			c.ctr.Banks--
			c.release(j)
		}
		if j.image != nil && j.demoteTo == 0 {
			c.unpin(j)
		}
		j.arrive = min(j.arrive, ev.Time)
		if !j.started {
			j.start = ev.Time
		}
		j.state = Canceled
		t.Canceled++
	default:
		c.fail("stream", ev, "unknown completion %q", ev.Detail)
		return
	}
	j.end = ev.Time
	t.Finished++
	t.Makespan = max(t.Makespan, ev.Time)
	t.waitSum += j.start - j.arrive
	t.MaxWait = max(t.MaxWait, j.start-j.arrive)
	t.Preempted += min(j.preempts, 1)
	t.Sliced += min(j.slices, 1)
	t.Faulted += min(j.faults, 1)
	t.SplitGangs += min(max(len(j.alloc.Ranges)-1, 0), 1)
	if j.alloc.CrossesTrunk {
		t.TrunkCrossed++
	}
	t.CheckpointOverhead += j.overhead
	for _, seg := range j.segs {
		t.UserNodeTime[j.user] += time.Duration(seg.Alloc.Count) * (seg.End - seg.Start)
	}
}

// fault folds a node or trunk going down or coming back. A crash
// destroys the resident images of the queued jobs on the node; a
// canceled job's image mid-eviction stays until its write settles.
func (c *scheduleCheck) fault(ev Event) {
	w := &c.trunk
	if ev.Kind == EvNodeDown || ev.Kind == EvNodeUp {
		w = &c.nodes[ev.Alloc[0].First].down
	}
	up := ev.Kind == EvNodeUp || ev.Kind == EvTrunkUp
	p := c.planned(ev.Alloc[0].First, ev.Time, ev.Time+1)
	switch {
	case up != w.open || up && ev.Time != w.to || !up && (ev.From != ev.Time || ev.To != p.to || p.to == 0):
		c.fail("residency", ev, "on %v with down window %+v, planned %+v", ev.Alloc, *w, p)
	case up:
		w.open = false
		if ev.Kind == EvNodeUp {
			c.downTime += ev.Time - w.from
		}
	case ev.Kind == EvTrunkDown:
		*w = window{ev.From, ev.To, true}
		c.ctr.TrunkOutages++
	default:
		*w = window{ev.From, ev.To, true}
		c.ctr.NodeFaults++
		for _, j := range c.jobs {
			if j.state < Done && covers(j.image, ev.Alloc[0].First) {
				c.unpin(j)
			}
		}
	}
}

// finish closes the fold against the run's report: every clause that
// reads the Report, and the first violation the stream held.
func (c *scheduleCheck) finish(rep Report) error {
	end := Event{Time: c.now, Kind: EvComplete}
	if len(rep.NodeBusy) != len(c.nodes) {
		c.fail("report", end, "%d nodes busy, the cluster has %d", len(rep.NodeBusy), len(c.nodes))
	}
	if c.err != nil {
		return c.err
	}
	t := c.tot
	want := Report{NodeDownTime: c.downTime, Availability: 1}
	var busy time.Duration
	for i, n := range c.nodes {
		if rep.NodeBusy[i] != n.busy {
			c.fail("report", end, "node %d busy %v, the stream holds %v", i, rep.NodeBusy[i], n.busy)
		}
		busy += n.busy
		if n.down.open && t.Makespan > n.down.from {
			want.NodeDownTime += t.Makespan - n.down.from
		}
	}
	if t.Finished > 0 {
		want.AvgWait = t.waitSum / time.Duration(t.Finished)
	}
	if m, n := float64(t.Makespan), float64(len(c.nodes)); m > 0 {
		want.Utilization = float64(busy) / (m * n)
		want.Availability = 1 - float64(want.NodeDownTime)/(m*n)
		want.Goodput = float64(t.done) / t.Makespan.Seconds()
	}
	if got := (Report{NodeDownTime: rep.NodeDownTime, Availability: rep.Availability, AvgWait: rep.AvgWait,
		Utilization: rep.Utilization, Goodput: rep.Goodput}); !reflect.DeepEqual(got, want) {
		c.fail("report", end, "derived figures %+v, the stream's %+v", got, want)
	}
	if rep.Counters != c.ctr {
		c.fail("report", end, "counters %+v, the stream folds to %+v", rep.Counters, c.ctr)
	}
	if !reflect.DeepEqual(rep.JobTotals, t) {
		c.fail("report", end, "job totals %+v, the stream folds to %+v", rep.JobTotals, t)
	}
	for id, f := range c.jobs {
		if f.demoteTo > 0 && f.demoteTo < c.now {
			c.fail("memory", end, "job %d's image is still pinned, its demotion ended at %v", id, f.demoteTo)
		}
	}
	for _, j := range rep.Jobs {
		f := c.jobs[j.ID]
		if f == nil || f.state != j.State || f.start != j.Start || f.end != j.End {
			c.fail("report", end, "%s %v [%v,%v) is not in the stream", j, j.State, j.Start, j.End)
			break
		}
		counts, n := [4]int{f.slices, f.preempts, f.faults, f.banks}, f.slices+f.preempts+f.faults+f.banks
		if segs := j.Segments(); !reflect.DeepEqual(segs, f.segs) {
			c.fail("segments", end, "%s has segments %+v, the stream %+v", j, segs, f.segs)
		} else if got := [4]int{j.TimeSlices(), j.Preemptions(), j.Faults(), j.Banks()}; got != counts || j.State <= Failed && n+1 != len(segs) {
			c.fail("segments", end, "%s has %d segments for %v slices, preemptions, faults and banks, the stream %v", j, len(segs), got, counts)
		}
		if j.CheckpointOverhead() != f.overhead || j.LostWork() != f.lost {
			c.fail("progress", end, "%s charged %v overhead and %v lost, the stream %v and %v",
				j, j.CheckpointOverhead(), j.LostWork(), f.overhead, f.lost)
		}
	}
	return c.err
}

// TestCheckScheduleRejects proves the checker: a corpus run with faults,
// a half-duplex store link and host images is certified as recorded,
// and each row edits its stream, its report or its fault plan once,
// after which checkSchedule must fail naming the clause the edit breaks.
// Every clause has a row.
func TestCheckScheduleRejects(t *testing.T) {
	run := runIdentity(1776, &MemRecorder{})
	if err := checkSchedule(run.cfg, run.jobs, run.events, run.rep); err != nil {
		t.Fatalf("the recorded run fails: %v", err)
	}
	// find is the index of the first event ok accepts.
	find := func(t *testing.T, evs []Event, ok func(i int, ev Event) bool) int {
		for i, ev := range evs {
			if ok(i, ev) {
				return i
			}
		}
		t.Fatal("the run has no event to edit")
		return -1
	}
	rows := []struct {
		name, clause string
		edit         func(t *testing.T, r *identityRun)
	}{
		{"a segment end moved 1 ns into the next gang's segment", "residency", func(t *testing.T, r *identityRun) {
			r.events[find(t, r.events, func(i int, ev Event) bool {
				return ev.Kind == EvSegmentEnd && ev.Detail == "cancel" && slices.ContainsFunc(r.events[i+1:], func(d Event) bool {
					return d.Kind == EvDispatch && d.Time == ev.To && slices.ContainsFunc(d.Alloc.Nodes(), func(n int) bool { return covers(ev.Alloc, n) })
				})
			})].To++
		}},
		{"a segment inside a down window", "residency", func(t *testing.T, r *identityRun) {
			seg := r.events[find(t, r.events, func(_ int, ev Event) bool { return ev.Kind == EvSegmentEnd && ev.To-ev.From > 1 })]
			plan := *r.cfg.Faults
			plan.Crashes = append(slices.Clip(plan.Crashes), NodeFault{Node: seg.Alloc[0].First, At: seg.From + 1, Repair: 1})
			r.cfg.Faults = &plan
		}},
		{"a crash that killed a gang dropped with its repair", "residency", func(t *testing.T, r *identityRun) {
			i := find(t, r.events, func(i int, ev Event) bool {
				return ev.Kind == EvNodeDown && r.events[i+1].Kind == EvSegmentEnd && r.events[i+1].Detail == "fault"
			})
			up := find(t, r.events, func(k int, ev Event) bool { return k > i && ev.Kind == EvNodeUp && ev.Alloc[0] == r.events[i].Alloc[0] })
			r.events = slices.Delete(slices.Delete(r.events, up, up+1), i, i+1)
		}},
		{"two overlapping half-duplex transfers", "link", func(t *testing.T, r *identityRun) {
			var write time.Duration
			r.events[find(t, r.events, func(_ int, ev Event) bool {
				if ev.Kind == EvStoreWrite {
					write = ev.To
				}
				return ev.Kind == EvStoreRead && ev.Detail == "" && ev.From == write && ev.From > ev.Time
			})].From--
		}},
		{"a duplicate EvComplete", "terminal", func(t *testing.T, r *identityRun) {
			i := find(t, r.events, func(_ int, ev Event) bool { return ev.Kind == EvComplete })
			r.events = slices.Insert(r.events, i, r.events[i])
		}},
		{"NodeBusy off by 1 ns", "report", func(_ *testing.T, r *identityRun) {
			r.rep.NodeBusy = slices.Clone(r.rep.NodeBusy)
			r.rep.NodeBusy[0]++
		}},
		{"a dropped EvDemoteEnd", "memory", func(t *testing.T, r *identityRun) {
			i := find(t, r.events, func(_ int, ev Event) bool { return ev.Kind == EvDemoteEnd })
			r.events = slices.Delete(r.events, i, i+1)
		}},
		{"a run segment ending 1 ns late", "progress", func(t *testing.T, r *identityRun) {
			r.events[find(t, r.events, func(_ int, ev Event) bool { return ev.Kind == EvSegmentEnd && ev.Detail == "run" })].To++
		}},
		{"a segment end that does not start at its dispatch", "segments", func(t *testing.T, r *identityRun) {
			r.events[find(t, r.events, func(_ int, ev Event) bool { return ev.Kind == EvSegmentEnd && ev.From > 0 })].From--
		}},
		{"an event before its predecessor", "stream", func(t *testing.T, r *identityRun) {
			i := find(t, r.events, func(i int, ev Event) bool { return i > 0 && ev.Time > r.events[i-1].Time })
			r.events[i].Time = r.events[i-1].Time - 1
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r := run
			r.events = slices.Clone(run.events)
			row.edit(t, &r)
			if err := checkSchedule(r.cfg, r.jobs, r.events, r.rep); err == nil || !strings.HasPrefix(err.Error(), row.clause+":") {
				t.Errorf("checkSchedule says %v, want a %s violation", err, row.clause)
			}
		})
	}
}
