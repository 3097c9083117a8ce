package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"gpucluster/internal/batch"
	"gpucluster/internal/netsim"
	"gpucluster/internal/perfmodel"
	"gpucluster/internal/sched"
)

// opSeeds derives one input seed per op from the run's seed, so that
// runs with neighbouring seeds share no op.
func opSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

// warmupOps is the number of untimed ops set-up runs on the instance
// before the first timed one.
const warmupOps = 2

func allDone(jobs []*batch.Job) bool {
	for _, j := range jobs {
		if j.State != batch.Done {
			return false
		}
	}
	return true
}

func countBackfilled(jobs []*batch.Job) (n int) {
	for _, j := range jobs {
		if j.Backfilled() {
			n++
		}
	}
	return n
}

// batchSubmit is the batch-submit workload: a scheduler that op after op
// is fed a mix with estimates left to it. The timed ops go in rounds over
// the same kinds mixes and every round starts on a fresh scheduler, so
// the ops of one kind do identical work on identical state.
type batchSubmit struct {
	tr        *tracer
	root      *track
	ops       int
	kinds     int
	nodes     int
	jobsPerOp int
	estimate  func(*batch.Job) time.Duration
	seeds     []int64 // warmupOps warm-up mixes, then one per kind
	s         *batch.Scheduler
	mix       []*batch.Job    // the current op's jobs
	ref       []time.Duration // makespan of each kind: [0] from set-up, the rest from round 0

	last        time.Duration // makespan of the op just run
	fingerprint struct {
		makespan   time.Duration
		backfilled int
	}
}

func setupBatchSubmit(p params, tr *tracer) (runner, error) {
	b := &batchSubmit{tr: tr, root: tr.newTrack("harness"), nodes: 10000, jobsPerOp: 750, kinds: fingerprintOps}
	if p.quick {
		b.nodes, b.jobsPerOp, b.kinds = 1000, 40, 2
	}
	b.ops = p.scale(100, 10) / b.kinds * b.kinds
	b.seeds = opSeeds(p.seed, warmupOps+b.kinds)
	b.ref = make([]time.Duration, b.kinds)
	est := batch.NewPerfEstimator()
	b.estimate = func(j *batch.Job) time.Duration {
		sp := b.root.begin("batch.estimate")
		d := est.Estimate(j)
		b.root.end(sp)
		return d
	}

	// Reference: op 0's mix alone on a fresh scheduler.
	fresh := batch.New(b.config())
	op0 := batch.SyntheticMix(b.seeds[warmupOps], b.jobsPerOp, b.nodes)
	for _, j := range op0 {
		if err := fresh.Submit(j); err != nil {
			return nil, err
		}
	}
	fresh.RunUntil(batch.Forever)
	if !allDone(op0) {
		return nil, fmt.Errorf("reference run left jobs unfinished")
	}
	b.ref[0] = fresh.Now()
	if p.corruptRef {
		b.ref[0]++
	}

	for i := -warmupOps; i < 0; i++ {
		b.prepare(i)
		b.op(i)
		if !allDone(b.mix) {
			return nil, fmt.Errorf("warm-up op left jobs unfinished")
		}
	}
	return b, nil
}

func (b *batchSubmit) config() batch.Config {
	return batch.Config{
		Cluster:       batch.NewCluster(b.nodes, netsim.GigabitSwitch(b.nodes)),
		Policy:        batch.Backfill,
		BackfillDepth: 512,
	}
}

// prepare generates op i's jobs and, where a round (or the warm-up)
// begins, replaces the scheduler and collects the previous one, so that
// every round meets the same heap.
func (b *batchSubmit) prepare(i int) {
	k := i // the warm-up ops have mixes of their own
	if i >= 0 {
		k = i % b.kinds
	}
	if k == 0 || i == -warmupOps {
		cfg := b.config()
		cfg.Estimate = b.estimate
		b.s = batch.New(cfg)
		runtime.GC()
	}
	b.mix = batch.SyntheticMix(b.seeds[warmupOps+k], b.jobsPerOp, b.nodes)
}

func (b *batchSubmit) op(i int) float64 {
	start := b.s.Now()
	sp := b.root.begin("batch.submit")
	for _, j := range b.mix {
		if err := b.s.Submit(j); err != nil {
			panic(err) // generated mixes always fit the cluster
		}
	}
	b.root.end(sp)
	sp = b.root.begin("batch.run")
	b.s.RunUntil(batch.Forever)
	b.root.end(sp)
	b.last = b.s.Now() - start
	return float64(len(b.mix))
}

// verify holds op 0 to the set-up reference and every later round to
// round 0: a kind's makespan on the same history must repeat exactly.
func (b *batchSubmit) verify(i int) bool {
	if i < fingerprintOps {
		b.fingerprint.makespan += b.last
		b.fingerprint.backfilled += countBackfilled(b.mix)
	}
	if k := i % b.kinds; 0 < i && i < b.kinds {
		b.ref[k] = b.last
	} else if b.last != b.ref[k] {
		return false
	}
	return allDone(b.mix)
}

func (b *batchSubmit) timed(m *measure) { m.runOps(b.ops, b.kinds, b.tr, b.root, b) }

func (b *batchSubmit) layers(m *measure) {
	n := float64(len(m.ops))
	m.set("batch.submit_ms_per_op", ms(b.tr.sum("batch.submit").total)/n)
	m.set("batch.run_ms_per_op", ms(b.tr.sum("batch.run").total)/n)
	m.set("batch.estimate_ms_per_op", ms(b.tr.sum("batch.estimate").total)/n)
	m.set("batch.estimate_calls_per_op", float64(b.tr.sum("batch.estimate").n)/n)
	m.set("batch.makespan_virtual_s", b.fingerprint.makespan.Seconds())
	m.set("batch.backfilled_per_op", float64(b.fingerprint.backfilled)/fingerprintOps)

	t0 := time.Now()
	rep := b.s.Run()
	m.set("batch.report_ms", ms(time.Since(t0)))
	runtime.KeepAlive(rep)

	probeEstimator(m, batch.SyntheticMix(b.seeds[warmupOps], b.jobsPerOp, b.nodes))
}

func (b *batchSubmit) close() {}

// probeEstimator times the layers under PerfEstimator.Estimate directly,
// on the distinct (grid, sub-domain) shapes of one op's jobs: the whole
// model step, the Fig. 7 schedule build and the switch simulation that
// perfmodel.netTime runs per call. It also times the Table 1 sweep and
// reports the model's largest deviation from the paper's Table 1, the
// fidelity figure that must not move when the model gets faster.
func probeEstimator(m *measure, jobs []*batch.Job) {
	type shape struct {
		g   sched.NodeGrid
		sub [3]int
	}
	seen := map[shape]bool{}
	var shapes []shape
	for _, j := range jobs {
		if j.Kind == batch.KindCG || j.Nodes < 2 {
			continue // the estimator calls the model for LBM and PDE gangs only
		}
		s := shape{sched.Arrange3D(j.Nodes), j.Problem}
		if !seen[s] {
			seen[s] = true
			shapes = append(shapes, s)
		}
	}
	h := perfmodel.Paper()
	const reps = 3
	calls := float64(reps * len(shapes))

	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, s := range shapes {
			h.ClusterStep(s.g, s.sub, perfmodel.Options{})
		}
	}
	m.set("perfmodel.cluster_step_us", us(time.Since(t0))/calls)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for _, s := range shapes {
			sched.Build(s.g, sched.Indirect)
		}
	}
	m.set("sched.build_us", us(time.Since(t0))/calls)
	runtime.ReadMemStats(&after)
	m.set("sched.build_allocs", float64(after.Mallocs-before.Mallocs)/calls)

	// The exchanges netTime hands the switch model, built outside the
	// timed region: one border message per pair per schedule step.
	type netInput struct {
		net   *netsim.Network
		steps [][]netsim.Exchange
		ready []time.Duration
	}
	inputs := make([]netInput, len(shapes))
	for i, s := range shapes {
		cfg := h.Net
		cfg.Ports = s.g.Size()
		in := netInput{net: netsim.New(cfg), ready: make([]time.Duration, s.g.Size())}
		for _, st := range sched.Build(s.g, sched.Indirect) {
			dim := 0
			for d := 0; d < 3; d++ {
				if st.Axis[d] != 0 {
					dim = d
				}
			}
			face := s.sub[(dim+1)%3] * s.sub[(dim+2)%3]
			exs := make([]netsim.Exchange, len(st.Pairs))
			for k, pr := range st.Pairs {
				exs[k] = netsim.Exchange{A: pr.A, B: pr.B, Bytes: int64(5 * face * 4)}
			}
			in.steps = append(in.steps, exs)
		}
		inputs[i] = in
	}
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for _, in := range inputs {
			for _, exs := range in.steps {
				in.net.StepTimes(exs, in.ready)
			}
		}
	}
	m.set("netsim.step_times_us", us(time.Since(t0))/calls)

	sub80 := [3]int{80, 80, 80}
	const sweeps = 20
	var rows []perfmodel.StepBreakdown
	t0 = time.Now()
	for r := 0; r < sweeps; r++ {
		rows = h.FixedSubDomainSweep(perfmodel.PaperNodeCounts, sub80)
	}
	m.set("perfmodel.table1_sweep_us", us(time.Since(t0))/sweeps)
	worst := 0.0
	for i, r := range rows {
		paper := perfmodel.PaperTable1[i]
		for _, c := range [][2]float64{
			{ms(r.CPUTotal), paper.CPUTotalMS},
			{ms(r.GPUCompute), paper.GPUComputeMS},
			{ms(r.GPUTotal), paper.GPUTotalMS},
			{r.Speedup, paper.SpeedupFactor},
		} {
			worst = math.Max(worst, math.Abs(c[0]-c[1])/c[1])
		}
	}
	m.set("perfmodel.table1_max_rel_err", worst)
}

// drainMixes is how many job mixes each leg rotates through, op after
// op. How long a leg takes depends on its mix (seeds differ by ±10% on
// one mix); a run over several mixes depends that much less on its seed.
// The mixes are the workload's kinds.
const drainMixes = 8

// drainLeg is one of the four schedulers a batch-drain op runs.
type drainLeg struct {
	name  string // span name, and the metric batch.<name>_ms
	nodes int
	cfg   batch.Config // Cluster is set per op
	gen   func(seed int64) []*batch.Job
	mixes [drainMixes][]*batch.Job  // estimates resolved in set-up
	ref   [drainMixes]time.Duration // makespan of each mix, from set-up
	s     *batch.Scheduler          // the op just run
}

// batchDrain is the batch-drain workload: every estimate is resolved in
// set-up, so an op is only queue, index and pass work.
type batchDrain struct {
	tr       *tracer
	root     *track
	ops      int
	legs     []*drainLeg
	mix      int             // the mix of the op just run
	reg      *batch.Registry // attached to the traced ops' schedulers
	estCalls int

	report      []time.Duration // report assembly of the EASY leg, fingerprint ops
	fingerprint struct {
		makespan                               time.Duration
		backfilled, preemptEvents, sliceEvents int
	}
}

func setupBatchDrain(p params, tr *tracer) (runner, error) {
	b := &batchDrain{tr: tr, root: tr.newTrack("harness")}
	b.ops = p.scale(13*drainMixes, 2*drainMixes)
	if tr != nil {
		b.reg = batch.NewRegistry()
	}
	// Jobs per leg: EASY, fair-share, conservative (roughly quadratic in
	// its queue, hence the short one), preempting stream.
	size := [4]int{8000, 2000, 400, 1500}
	if p.quick {
		size = [4]int{400, 100, 40, 150}
	}
	b.legs = []*drainLeg{
		{name: "drain_easy", nodes: 1024,
			cfg: batch.Config{Policy: batch.Backfill, BackfillDepth: 512},
			gen: func(seed int64) []*batch.Job { return batch.SyntheticMix(seed, size[0], 1024) }},
		{name: "drain_fairshare", nodes: 1024,
			cfg: batch.Config{Policy: batch.FairShare, BackfillDepth: 512},
			gen: func(seed int64) []*batch.Job { return batch.SyntheticMix(seed, size[1], 1024) }},
		{name: "drain_conservative", nodes: 256,
			cfg: batch.Config{Policy: batch.Conservative},
			gen: func(seed int64) []*batch.Job { return batch.SyntheticMix(seed, size[2], 256) }},
		// The quantum is the one that makes both preempt and slice
		// events non-zero on this stream.
		{name: "drain_preempt", nodes: 128,
			cfg: batch.Config{Policy: batch.Backfill, Preempt: true, Quantum: 20 * time.Second,
				SuspendToHost: true},
			gen: func(seed int64) []*batch.Job {
				return batch.SyntheticStream(seed, size[3], 128, 4*time.Second)
			}},
	}
	seeds := opSeeds(p.seed, len(b.legs)*drainMixes)

	// Resolve every estimate here, once per distinct (kind, gang, problem):
	// the estimator is linear in Steps, so one single-step call prices
	// every job of a shape exactly as Submit would.
	type shape struct {
		kind    batch.JobKind
		nodes   int
		problem [3]int
	}
	est := batch.NewPerfEstimator()
	perStep := map[shape]time.Duration{}
	for l, leg := range b.legs {
		leg.cfg.Estimate = func(j *batch.Job) time.Duration {
			b.estCalls++
			return est.Estimate(j)
		}
		for k := range leg.mixes {
			leg.mixes[k] = leg.gen(seeds[l*drainMixes+k])
			for _, j := range leg.mixes[k] {
				sh := shape{j.Kind, j.Nodes, j.Problem}
				d, ok := perStep[sh]
				if !ok {
					one := batch.Job{Kind: j.Kind, Nodes: j.Nodes, Problem: j.Problem, Steps: 1}
					d = est.Estimate(&one)
					perStep[sh] = d
				}
				j.Est = time.Duration(j.Steps) * d
			}
		}
	}

	// Reference makespans: each mix once on fresh schedulers. The last
	// warmupOps of these runs are the warm-up ops too.
	for k := 0; k < drainMixes; k++ {
		b.op(k)
		for _, leg := range b.legs {
			if !allDone(leg.mixes[k]) {
				return nil, fmt.Errorf("%s: set-up run left jobs unfinished", leg.name)
			}
			leg.ref[k] = leg.s.Now()
			if p.corruptRef {
				leg.ref[k]++
			}
		}
	}
	return b, nil
}

func (b *batchDrain) op(i int) float64 {
	b.mix = i % drainMixes
	jobs := 0
	for _, leg := range b.legs {
		mix := leg.mixes[b.mix]
		sp := b.root.begin("batch." + leg.name)
		cfg := leg.cfg
		cfg.Cluster = batch.NewCluster(leg.nodes, netsim.GigabitSwitch(leg.nodes))
		if b.root != nil && b.root.on {
			cfg.Metrics = b.reg
		}
		s := batch.New(cfg)
		leg.s = s
		sub := b.root.begin("batch.submit")
		for _, j := range mix {
			if err := s.Submit(j); err != nil {
				panic(err) // generated mixes always fit the cluster
			}
		}
		b.root.end(sub)
		run := b.root.begin("batch.run")
		s.RunUntil(batch.Forever)
		b.root.end(run)
		b.root.end(sp)
		jobs += len(mix)
	}
	return float64(jobs)
}

func (b *batchDrain) prepare(int) {}

func (b *batchDrain) verify(i int) bool {
	ok := true
	for _, leg := range b.legs {
		if i < fingerprintOps {
			t0 := time.Now()
			rep := leg.s.Run()
			if leg.name == "drain_easy" {
				b.report = append(b.report, time.Since(t0))
			}
			b.fingerprint.makespan += rep.Makespan
			b.fingerprint.backfilled += rep.Backfilled
			b.fingerprint.preemptEvents += rep.PreemptEvents
			b.fingerprint.sliceEvents += rep.SliceEvents
		}
		ok = ok && leg.s.Now() == leg.ref[b.mix] && allDone(leg.mixes[b.mix])
	}
	return ok
}

func (b *batchDrain) timed(m *measure) { m.runOps(b.ops, drainMixes, b.tr, b.root, b) }

func (b *batchDrain) layers(m *measure) {
	n := float64(len(m.ops))
	m.set("batch.submit_ms_per_op", ms(b.tr.sum("batch.submit").total)/n)
	m.set("batch.run_ms_per_op", ms(b.tr.sum("batch.run").total)/n)
	m.set("batch.estimate_calls_per_op", float64(b.estCalls)/float64(m.attempted))
	m.set("batch.report_ms", ms(quantile(b.report, 0.5)))
	for _, leg := range b.legs {
		m.set("batch."+leg.name+"_ms", ms(quantile(b.tr.durations("batch."+leg.name), 0.5)))
	}
	for _, pt := range b.reg.Snapshot() {
		switch pt.Name {
		case "batch_scheduler_passes_total":
			m.layer["batch.passes_per_op"] += pt.Value / n
		case "batch_placement_candidates_total":
			m.layer["batch.placement_candidates_per_op"] += pt.Value / n
		case "batch_pass_wall_seconds":
			m.layer["batch.pass_wall_ms_per_op"] += pt.Sum * 1e3 / n
		}
	}
	m.set("batch.makespan_virtual_s", b.fingerprint.makespan.Seconds())
	m.set("batch.backfilled_per_op", float64(b.fingerprint.backfilled)/fingerprintOps)
	m.set("batch.preempt_events_per_op", float64(b.fingerprint.preemptEvents)/fingerprintOps)
	m.set("batch.slice_events_per_op", float64(b.fingerprint.sliceEvents)/fingerprintOps)
}

func (b *batchDrain) close() {}
