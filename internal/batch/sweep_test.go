package batch

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gpucluster/internal/netsim"
)

// The single sweep against the pass it replaced. With restartPerStart
// set, every start returns to schedulePass for a rescan from the queue
// head — the parent commit's pass, line for line — so the switch is the
// oracle: a sweep that goes on past its own starts must produce the
// same schedule, job for job, on every configuration. (The PR 14
// pattern: the replaced schedule walk became netTimeWalk, the oracle of
// the closed form.)

// sweepCase is one differential configuration: a scheduler config, the
// cluster to build for it and the jobs to submit, each rebuilt per run
// so the two sides share nothing.
type sweepCase struct {
	name     string
	cfg      Config // Cluster is set per run, Recorder when record is or on the oracle side
	record   bool   // attach a MemRecorder to the sweep side: the pass then classifies every job it skips
	replan   bool   // search every conservative reservation (Scheduler.replanAll)
	roundCap int    // scheduling rounds before giving up; 0 means sweepRoundCap
	cluster  func() *Cluster
	jobs     func() []*Job
}

// sweepRoundCap stops a configuration that does not drain (checkpoint
// thrash the scheduler has no guard against is a known way not to:
// ROADMAP item 16, seeds 3781, 9154 and 10112) so that it fails its
// test, or stays "capped" in the identity corpus, instead of hanging.
const sweepRoundCap = 500000

// sweepOutcome is what the two sides must agree on.
type sweepOutcome struct {
	rep      Report
	jobs     []*Job
	rounds   int  // scheduling rounds: Step calls
	capped   bool // stopped at the round cap, not drained
	passes   int  // sweeps: one per round plus one per restart
	searches int  // conservative profile searches
}

// restarts is how many sweeps ended in a restart from the queue head.
func (o sweepOutcome) restarts() int { return o.passes - o.rounds }

// run drives the case to completion through Step, counting scheduling
// rounds; jobs the cluster cannot admit are dropped on both sides alike.
func (c sweepCase) run(oracle bool) sweepOutcome {
	cfg := c.cfg
	cfg.Cluster = c.cluster()
	if c.record || oracle {
		// The oracle always records, so it walks every job behind a
		// blocked head: the sweep's block skips (queue.go) are held to
		// the per-job walk whenever the case's draw leaves it bare.
		cfg.Recorder = &MemRecorder{}
	}
	s := New(cfg)
	s.restartPerStart = oracle
	s.replanAll = c.replan
	var out sweepOutcome
	for _, j := range c.jobs() {
		if s.Submit(j) == nil {
			out.jobs = append(out.jobs, j)
		}
	}
	limit := c.roundCap
	if limit == 0 {
		limit = sweepRoundCap
	}
	out.rounds = 1
	for out.rounds < limit && s.Step() {
		out.rounds++
	}
	out.capped = out.rounds == limit
	out.rep, out.passes, out.searches = s.report(), s.passes, s.searches
	return out
}

// diff names the first disagreement between two outcomes, or "".
func (a sweepOutcome) diff(b sweepOutcome) string {
	if a.capped || b.capped {
		return fmt.Sprintf("not drained after %d and %d rounds", a.rounds, b.rounds)
	}
	if a.rep.Makespan != b.rep.Makespan || a.rep.Backfilled != b.rep.Backfilled ||
		a.rep.PreemptEvents != b.rep.PreemptEvents || a.rep.SliceEvents != b.rep.SliceEvents {
		return fmt.Sprintf("report: makespan %v/%v backfilled %d/%d preempt %d/%d slice %d/%d",
			a.rep.Makespan, b.rep.Makespan, a.rep.Backfilled, b.rep.Backfilled,
			a.rep.PreemptEvents, b.rep.PreemptEvents, a.rep.SliceEvents, b.rep.SliceEvents)
	}
	if len(a.jobs) != len(b.jobs) {
		return fmt.Sprintf("admitted %d vs %d jobs", len(a.jobs), len(b.jobs))
	}
	for i, j := range a.jobs {
		k := b.jobs[i]
		same := j.State == k.State && j.Start == k.Start && j.End == k.End &&
			j.Backfilled() == k.Backfilled() && len(j.Segments()) == len(k.Segments()) &&
			j.promise == k.promise && j.promised == k.promised &&
			len(j.Alloc.Ranges) == len(k.Alloc.Ranges)
		for r := 0; same && r < len(j.Alloc.Ranges); r++ {
			same = j.Alloc.Ranges[r] == k.Alloc.Ranges[r]
		}
		if !same {
			return fmt.Sprintf("%s: %v [%v,%v) on %v backfilled=%v segments=%d promise=%v vs %v [%v,%v) on %v backfilled=%v segments=%d promise=%v",
				j, j.State, j.Start, j.End, j.Alloc.Ranges, j.Backfilled(), len(j.Segments()), j.promise,
				k.State, k.Start, k.End, k.Alloc.Ranges, k.Backfilled(), len(k.Segments()), k.promise)
		}
	}
	return ""
}

// randomSweepCase draws one configuration from the matrix policy ×
// depth × preempt × quantum × suspend-to-host × trunk stretch × duplex ×
// Actual jitter × memory layout × fault plan × mix/stream, one in eight
// with a recorder attached. The second draw chose between two placement
// engines while there were two; it is still taken, and discarded, so
// that a seed generates the case it always has — seeds 3781, 9154 and
// 10112 remain the conservative + Preempt checkpoint thrash on
// heterogeneous memory that ROADMAP item 16 records.
func randomSweepCase(seed int64) sweepCase {
	rng := rand.New(rand.NewSource(seed))
	pick := func(n int) int { return rng.Intn(n) }
	nodes := []int{8, 16, 32}[pick(3)]
	count := 40 + pick(60)
	ck, rs := fixedCosts(200*time.Millisecond, 100*time.Millisecond)
	hs, hr := fixedHostCosts(50*time.Millisecond, 25*time.Millisecond)
	policy := Policies()[pick(4)]
	pick(2) // the placement draw, kept so every later draw is the one it was
	cfg := Config{
		Policy:          policy,
		BackfillDepth:   []int{0, 0, 2, 4, 16}[pick(5)],
		Preempt:         pick(2) == 0,
		Quantum:         []time.Duration{0, 0, 5 * time.Second, 20 * time.Second}[pick(4)],
		SuspendToHost:   pick(2) == 0,
		TrunkSlowdown:   []float64{0, 1.3, 2}[pick(3)],
		StoreDuplex:     []Duplex{FullDuplex, HalfDuplex}[pick(2)],
		CheckpointCost:  ck,
		RestoreCost:     rs,
		HostSuspendCost: hs,
		HostResumeCost:  hr,
	}
	if pick(3) == 0 {
		// Imperfect estimates: odd IDs overrun by 30%, the rest finish early.
		cfg.Actual = func(j *Job, est time.Duration) time.Duration {
			if j.ID%2 == 1 {
				return est * 13 / 10
			}
			return est * 9 / 10
		}
	}
	if pick(4) == 0 {
		cfg.Faults = GenFaultPlan(seed, nodes, 4*time.Hour, 10*time.Minute)
		cfg.CheckpointInterval = []time.Duration{0, 15 * time.Second}[pick(2)]
	}
	// Memory layout: the paper's uniform 2.5 GB; a machine where every
	// third node is too small for the larger LBM blocks; or one so tight
	// that a resident image pins most of a node.
	memory := pick(3)
	trunkAt := nodes * 3 / 4 // the stock switch's 24 non-blocking ports never split 8 or 16 nodes
	stream := pick(2) == 0
	gap := time.Duration(1+pick(5)) * time.Second
	c := sweepCase{cfg: cfg, record: pick(8) == 0}
	c.name = fmt.Sprintf("seed=%d %v nodes=%d jobs=%d depth=%d preempt=%v quantum=%v host=%v trunk=%g %v actual=%v faults=%v memory=%d stream=%v record=%v",
		seed, cfg.Policy, nodes, count, cfg.BackfillDepth, cfg.Preempt, cfg.Quantum,
		cfg.SuspendToHost, cfg.TrunkSlowdown, cfg.StoreDuplex, cfg.Actual != nil, cfg.Faults != nil, memory, stream, c.record)
	c.cluster = func() *Cluster {
		net := netsim.GigabitSwitch(nodes)
		net.NonBlockingPorts = trunkAt
		cl := NewCluster(nodes, net)
		for i := 0; i < nodes; i++ {
			spec := cl.Spec(i)
			switch {
			case memory == 1 && i%3 == 1:
				spec.MemBytes = 48 << 20
			case memory == 2 && i%4 == 3:
				spec.MemBytes = 96 << 20
			case memory == 2:
				spec.MemBytes = 160 << 20
			default:
				continue
			}
			cl.SetSpec(i, spec)
		}
		return cl
	}
	c.jobs = func() []*Job {
		if stream {
			return SyntheticStream(seed, count, nodes, gap)
		}
		return SyntheticMix(seed, count, nodes)
	}
	return c
}

// TestSingleSweepMatchesRestartPerStart is the differential test: every
// seeded configuration runs once with the single sweep and once with
// every start forced onto the restart branch, and the two schedules
// must agree job for job.
func TestSingleSweepMatchesRestartPerStart(t *testing.T) {
	configs := 2400
	if testing.Short() {
		configs = 300
	}
	swept, saved := 0, 0
	for seed := int64(1); seed <= int64(configs); seed++ {
		c := randomSweepCase(seed)
		sweep, oracle := c.run(false), c.run(true)
		if d := sweep.diff(oracle); d != "" {
			t.Errorf("%s: single sweep diverges from restart-per-start: %s", c.name, d)
		}
		if sweep.passes > oracle.passes {
			t.Errorf("%s: %d sweeps where restart-per-start takes %d passes", c.name, sweep.passes, oracle.passes)
		}
		swept += sweep.passes
		saved += oracle.passes - sweep.passes
	}
	if saved == 0 {
		t.Fatal("the sweep never saved a pass: the comparison is vacuous")
	}
	t.Logf("%d configurations: %d sweeps, %d passes fewer than restart-per-start", configs, swept, saved)
}

// identityCorpus holds one line per randomSweepCase seed: the seed, how
// the run ended ("drained", or "capped" and the rounds taken), its event
// count and the first 64 bits of the SHA-256 of its stream.
const identityCorpus = "testdata/identity/sweep.txt"

// identityRun is one corpus seed run to its end through Step, with rec
// attached (reset first, so one recorder's buffer serves every seed): on
// even seeds a job is canceled every 13 rounds, on seeds divisible by 3
// every fifth job fails at completion, so canceled and failed jobs are
// certified too.
type identityRun struct {
	name   string
	cfg    Config // as run, cluster and recorder attached
	jobs   []*Job // the submitted jobs the cluster admitted
	events []Event
	rep    Report
	rounds int // sweepRoundCap if the run did not drain
}

func runIdentity(seed int64, rec *MemRecorder) identityRun {
	c := randomSweepCase(seed)
	rec.Reset()
	r := identityRun{name: c.name, cfg: c.cfg, rounds: 1}
	r.cfg.Cluster, r.cfg.Recorder = c.cluster(), rec
	if seed%3 == 0 {
		r.cfg.Execute = execFunc(func(j *Job, _ Allocation) (string, error) {
			if j.ID%5 == 0 {
				return "", errTestBoom
			}
			return "ok", nil
		})
	}
	s := New(r.cfg)
	for _, j := range c.jobs() {
		if s.Submit(j) == nil {
			r.jobs = append(r.jobs, j)
		}
	}
	for ; r.rounds < sweepRoundCap && s.Step(); r.rounds++ {
		if seed%2 == 0 && r.rounds%13 == 0 {
			s.Cancel(r.jobs[r.rounds*7%len(r.jobs)].ID) // a terminal job refuses; that is fine
		}
	}
	r.events, r.rep = rec.Events(), s.report()
	return r
}

// line is the run's corpus line. The hash covers each event's time,
// kind, reason, job, From/To, node ranges and detail, not its pass
// number.
func (r identityRun) line(seed int64) string {
	var b []byte
	for _, ev := range r.events {
		b = binary.LittleEndian.AppendUint64(b, uint64(ev.Time))
		b = append(b, byte(ev.Kind), byte(ev.Reason))
		for _, v := range []int64{int64(ev.Job), int64(ev.From), int64(ev.To), int64(len(ev.Alloc))} {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		for _, nr := range ev.Alloc {
			b = binary.LittleEndian.AppendUint64(b, uint64(nr.First))
			b = binary.LittleEndian.AppendUint64(b, uint64(nr.Count))
		}
		b = append(binary.LittleEndian.AppendUint64(b, uint64(len(ev.Detail))), ev.Detail...)
	}
	outcome := "drained"
	if r.rounds == sweepRoundCap {
		outcome = fmt.Sprintf("capped %d", r.rounds)
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%d %s %d %x", seed, outcome, len(r.events), sum[:8])
}

// TestScheduleIdentityCorpus certifies every corpus seed's stream with
// checkSchedule and requires its line to equal the committed one: a
// change of any schedule the generator draws shows as a changed line.
// REGEN_IDENTITY=1 rewrites the file; -short, and a -race build (ten
// times slower, and there for interleavings, not schedules), compare
// its first 300 lines. The vacuity guard wants every event kind, every
// way a segment ends and at least one failed and one canceled job.
func TestScheduleIdentityCorpus(t *testing.T) {
	seeds := 2000
	if testing.Short() || raceBuild() {
		seeds = 300
	}
	// The seeds are independent runs: worker w takes every workers-th
	// one with its own recorder, and tallies the event kinds, the
	// segment ends and the completions its runs recorded.
	got := make([]string, seeds)
	workers := runtime.GOMAXPROCS(0)
	tallies := make([]map[string]int, workers)
	var wg sync.WaitGroup
	for w := range tallies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec, tally := &MemRecorder{}, map[string]int{}
			for seed := int64(w + 1); seed <= int64(seeds); seed += int64(workers) {
				r := runIdentity(seed, rec)
				if err := checkSchedule(r.cfg, r.jobs, r.events, r.rep); err != nil {
					t.Errorf("%s: %v", r.name, err)
				}
				got[seed-1] = r.line(seed)
				for _, ev := range r.events {
					if tally[ev.Kind.String()]++; ev.Kind == EvSegmentEnd || ev.Kind == EvComplete {
						tally[ev.Kind.String()+" "+ev.Detail]++
					}
				}
			}
			tallies[w] = tally
		}()
	}
	wg.Wait()
	if os.Getenv("REGEN_IDENTITY") != "" {
		if err := os.WriteFile(identityCorpus, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	disk, err := os.ReadFile(identityCorpus)
	if err != nil {
		t.Fatalf("%v (run with REGEN_IDENTITY=1 to generate)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(disk), "\n"), "\n")
	if len(want) < seeds {
		t.Fatalf("%s has %d lines, want %d", identityCorpus, len(want), seeds)
	}
	changed := 0
	for i, line := range got {
		if line != want[i] {
			if changed++; changed <= 10 {
				t.Errorf("schedule changed: %s, committed %s", line, want[i])
			}
		}
	}
	if changed > 0 {
		t.Errorf("%d of %d seeds changed; regenerate with REGEN_IDENTITY=1 after an intentional change", changed, seeds)
	}
	kinds := []string{"segment-end run", "segment-end drain", "segment-end fault", "segment-end cancel",
		"segment-end bank", "complete failed", "complete canceled"}
	for k := range eventKindNames {
		kinds = append(kinds, EventKind(k).String())
	}
	for _, k := range kinds {
		if !slices.ContainsFunc(tallies, func(tally map[string]int) bool { return tally[k] > 0 }) {
			t.Errorf("no %s event: the corpus is vacuous there", k)
		}
	}
}

// ruleCluster is the named cases' machine: n nodes with the trunk
// boundary at trunkAt (n for none) and the last small nodes cut to 16 MB,
// too little for the 56^3 LBM block bigJob asks for.
func ruleCluster(n, trunkAt, small int) func() *Cluster {
	return func() *Cluster {
		net := netsim.GigabitSwitch(n)
		net.NonBlockingPorts = trunkAt
		cl := NewCluster(n, net)
		for i := n - small; i < n; i++ {
			spec := cl.Spec(i)
			spec.MemBytes = 16 << 20
			cl.SetSpec(i, spec)
		}
		return cl
	}
}

// ruleJob is a job of the named cases: a CG solve with a negligible
// footprint and a stated estimate, so only width, rank and runtime play.
func ruleJob(name string, nodes, prio int, est, at time.Duration) *Job {
	return &Job{Name: name, Kind: KindCG, Nodes: nodes, Priority: prio, Est: est, Submit: at}
}

// bigJob is ruleJob with a 26 MB per-node LBM block.
func bigJob(name string, nodes, prio int, est, at time.Duration) *Job {
	j := ruleJob(name, nodes, prio, est, at)
	j.Kind, j.Problem = KindLBM, [3]int{56, 56, 56}
	return j
}

// TestSweepRestartRules holds one minimal case per rule the sweep needs
// to stay the pass it replaced; each was first seen as a divergence, and
// each case diverges again (its witness starts later) when its rule is
// taken out. A case states the instant its witness job must start and
// whether the rule is one that restarts the sweep.
func TestSweepRestartRules(t *testing.T) {
	const sec = time.Second
	ck, rs := fixedCosts(1*sec, 10*sec)
	many := func() []*Job {
		var jobs []*Job
		for i := 0; i < 100; i++ {
			jobs = append(jobs, ruleJob(fmt.Sprintf("n%02d", i), 1, 0, 10*sec, 0))
		}
		return jobs
	}
	cases := []struct {
		sweepCase
		witness   string
		start     time.Duration
		restarted bool
	}{
		// A is admitted into [0,50) and really runs to 150, through H's
		// slot at [100,110): a re-plan moves H to 150 and C fits now.
		{sweepCase{name: "Actual overrun under conservative",
			cfg: Config{Policy: Conservative, Actual: func(j *Job, est time.Duration) time.Duration {
				if j.Name == "A" {
					return 3 * est
				}
				return est
			}},
			cluster: ruleCluster(6, 6, 0),
			jobs: func() []*Job {
				return []*Job{ruleJob("R", 2, 4, 100*sec, 0), ruleJob("H", 6, 3, 10*sec, 0),
					ruleJob("A", 2, 2, 50*sec, 0), ruleJob("C", 2, 1, 120*sec, 0)}
			}}, "C", 0, true},
		// P checkpoints X and Y; at 32 s, behind the blocked H, X is
		// planned with a 10 s restore and then Y starts and books the
		// read link to 42 s. X's restore now queues: its slot grows to
		// [92,202), Z behind it moves to 202, and D's [32,197) fits.
		{sweepCase{name: "restore booked on the link",
			cfg:     Config{Policy: Conservative, Preempt: true, CheckpointCost: ck, RestoreCost: rs},
			cluster: ruleCluster(5, 5, 0),
			jobs: func() []*Job {
				return []*Job{ruleJob("X", 3, 0, 100*sec, 0), ruleJob("Y", 1, 0, 100*sec, 0),
					ruleJob("P", 5, 5, 20*sec, 10*sec), ruleJob("R", 3, 4, 50*sec, 15*sec),
					ruleJob("H", 3, 3, 10*sec, 15*sec), ruleJob("Z", 5, 0, 10*sec, 15*sec),
					ruleJob("D", 1, 0, 165*sec, 15*sec)}
			}}, "D", 32 * sec, true},
		// A fits five of the six nodes, so its slot [110,130) demands an
		// idle machine; S is admitted under the machine-wide cap alone
		// and runs through it. A re-plan moves A to 200 and C fits now.
		{sweepCase{name: "heterogeneous memory",
			cfg:     Config{Policy: Conservative},
			cluster: ruleCluster(6, 6, 1),
			jobs: func() []*Job {
				return []*Job{ruleJob("R", 3, 5, 100*sec, 0), ruleJob("H", 4, 4, 10*sec, 0),
					bigJob("A", 5, 3, 20*sec, 0), ruleJob("S", 1, 2, 200*sec, 0),
					ruleJob("C", 1, 1, 150*sec, 0)}
			}}, "C", 0, true},
		// c1 starts; a restarted scan counts c2..c5 and so reaches c5.
		{sweepCase{name: "scanned accounting at depth 4",
			cfg:     Config{Policy: Backfill, BackfillDepth: 4},
			cluster: ruleCluster(8, 8, 0),
			jobs: func() []*Job {
				return []*Job{ruleJob("R", 4, 9, 100*sec, 0), ruleJob("H", 8, 8, 10*sec, 0),
					ruleJob("c1", 1, 7, 10*sec, 0), ruleJob("c2", 1, 6, 200*sec, 0),
					ruleJob("c3", 1, 5, 200*sec, 0), ruleJob("c4", 1, 4, 200*sec, 0),
					ruleJob("c5", 1, 3, 10*sec, 0)}
			}}, "c5", 0, false},
		// The 65th start of one sweep crosses the queue's compaction
		// threshold; compacting there would slide the 35 jobs still to
		// come under the iteration.
		{sweepCase{name: "more than 64 starts in one sweep",
			cfg:     Config{Policy: Backfill},
			cluster: ruleCluster(128, 128, 0),
			jobs:    many},
			"n99", 0, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sweep, oracle := c.run(false), c.run(true)
			if d := sweep.diff(oracle); d != "" {
				t.Fatalf("single sweep diverges from restart-per-start: %s", d)
			}
			for _, j := range sweep.jobs {
				if j.State != Done {
					t.Fatalf("%s ended %v", j, j.State)
				}
				if j.Name == c.witness && j.Start != c.start {
					t.Fatalf("%s started at %v, want %v", j, j.Start, c.start)
				}
			}
			if (sweep.restarts() > 0) != c.restarted {
				t.Fatalf("%d restarts, want restarted=%v", sweep.restarts(), c.restarted)
			}
		})
	}
}

// TestOneSweepPerEvent pins the pass count where wall-clock figures
// cannot gate: on the benchmark's four disciplines — topology placement,
// uniform memory, exact runtimes, where no restart rule can fire — a
// drain takes exactly one sweep per scheduling round. (The pass this
// replaced took one more per start: about 4,000 for 2,000 jobs.)
func TestOneSweepPerEvent(t *testing.T) {
	legs := []sweepCase{
		{name: "easy depth 512", cfg: Config{Policy: Backfill, BackfillDepth: 512},
			cluster: ruleCluster(1024, 24, 0), jobs: func() []*Job { return SyntheticMix(5, 2000, 1024) }},
		{name: "fair-share depth 512", cfg: Config{Policy: FairShare, BackfillDepth: 512},
			cluster: ruleCluster(1024, 24, 0), jobs: func() []*Job { return SyntheticMix(6, 2000, 1024) }},
		// A quarter of the others' size: the conservative plan is quadratic in the queue.
		{name: "conservative", cfg: Config{Policy: Conservative},
			cluster: ruleCluster(256, 24, 0), jobs: func() []*Job { return SyntheticMix(7, 500, 256) }},
		{name: "preempt + quantum stream",
			cfg:     Config{Policy: Backfill, Preempt: true, Quantum: 20 * time.Second, SuspendToHost: true},
			cluster: ruleCluster(128, 24, 0),
			jobs:    func() []*Job { return SyntheticStream(8, 2000, 128, 4*time.Second) }},
	}
	for _, c := range legs {
		out := c.run(false)
		if out.rep.Failed != 0 || len(out.rep.Jobs) != len(out.jobs) {
			t.Fatalf("%s: finished %d of %d jobs, %d failed", c.name, len(out.rep.Jobs), len(out.jobs), out.rep.Failed)
		}
		if out.passes != out.rounds {
			t.Errorf("%s: %d sweeps for %d scheduling rounds: %d restarts where no rule applies",
				c.name, out.passes, out.rounds, out.restarts())
		}
	}
}
