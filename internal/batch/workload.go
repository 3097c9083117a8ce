package batch

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"gpucluster/internal/cluster"
	"gpucluster/internal/lbm"
	"gpucluster/internal/mpi"
	"gpucluster/internal/pde"
	"gpucluster/internal/perfmodel"
	"gpucluster/internal/sched"
	"gpucluster/internal/sparse"
	"gpucluster/internal/tracer"
	"gpucluster/internal/vecmath"
)

// defaultProblem returns the per-kind default problem size: the paper's
// 80^3 LBM sub-domain, a moderate heat grid, a 64x64 Poisson system.
func defaultProblem(k JobKind) [3]int {
	switch k {
	case KindCG:
		return [3]int{64, 64, 1}
	case KindPDE:
		return [3]int{64, 64, 16}
	default:
		return [3]int{80, 80, 80}
	}
}

// memoryNeed returns the per-node memory footprint of a job's block,
// checked against the node specs at submit and at placement.
func memoryNeed(kind JobKind, problem [3]int, nodes int) int64 {
	cells := int64(problem[0]) * int64(problem[1]) * int64(problem[2])
	switch kind {
	case KindCG:
		// Local CSR rows (5-point stencil) plus solver vectors, split
		// over the gang. The largest rank holds the ceiling share.
		unknowns := int64(problem[0]) * int64(problem[1])
		perNode := (unknowns + int64(nodes) - 1) / int64(nodes)
		return perNode * (5*12 + 6*4)
	case KindPDE:
		// Two scalar fields with ghost shells.
		return cells * 2 * 4
	default:
		// Double-buffered D3Q19 distributions plus density field.
		return cells * (2*lbm.Q + 1) * 4
	}
}

// PerfEstimator derives virtual runtimes from the calibrated hardware
// model of package perfmodel: LBM jobs use the full Table 1 composition
// (GPU compute, AGP border traffic, non-overlapped network time), the
// other kinds scale its components by their arithmetic intensity.
type PerfEstimator struct {
	H perfmodel.Hardware
}

// NewPerfEstimator returns an estimator over the paper's hardware.
func NewPerfEstimator() *PerfEstimator {
	return &PerfEstimator{H: perfmodel.Paper()}
}

// Estimate returns the modeled runtime of j on its gang's Arrange3D
// grid: Steps times the modeled step, or Forever where that product
// would overflow a Duration, which Submit refuses instead of a wrapped
// estimate.
func (e *PerfEstimator) Estimate(j *Job) time.Duration {
	g := sched.Arrange3D(j.Nodes)
	var per time.Duration
	switch j.Kind {
	case KindCG:
		unknowns := float64(j.Problem[0] * j.Problem[1])
		local := unknowns / float64(j.Nodes)
		// A 5-point matvec plus the vector updates per unknown is about
		// a sixth of one D3Q19 cell update on the GPU matvec path.
		compute := time.Duration(local / 6 / e.H.GPUCellsPerSec * float64(time.Second))
		var comm time.Duration
		if j.Nodes > 1 {
			// Two allreduce rounds plus the proxy refresh per iteration.
			msgs := 2*math.Ceil(math.Log2(float64(j.Nodes))) + 2
			comm = time.Duration(msgs) * e.H.Net.MsgLatency
		}
		per = compute + comm
	case KindPDE:
		br := e.H.ClusterStep(g, j.Problem, perfmodel.Options{})
		// One scalar per cell against 19 distributions: ~1/5 the
		// compute and border traffic of the LBM step.
		per = br.GPUCompute/5 + br.GPUCPUComm/5 + br.NetNonOverlap
	default:
		per = e.H.ClusterStep(g, j.Problem, perfmodel.Options{}).GPUTotal
	}
	if per > 0 && time.Duration(j.Steps) > Forever/per {
		return Forever
	}
	return time.Duration(j.Steps) * per
}

// SimExecutor runs each job's workload for real on the functional
// simulators, mapping the gang's Arrange3D grid onto the workload's
// domain decomposition. Use small problems: this does the actual
// compute. It implements Checkpointer, so preempted jobs run in
// segments with genuine state snapshots: the live LBM simulator, the
// gathered heat field, or the partial CG iterate (resumed as a
// residual-correction solve — the Krylov space is lost across a
// restart, exactly as with a real checkpointed solver).
type SimExecutor struct {
	// TracerParticles releases a pollutant cloud through each LBM job's
	// developed flow (the Section 5 dispersion post-pass); 0 disables.
	TracerParticles int
}

// Execute implements Executor: the whole workload in one segment.
func (x SimExecutor) Execute(j *Job, a Allocation) (string, error) {
	switch j.Kind {
	case KindLBM:
		sim, err := buildLBMSim(j)
		if err != nil {
			return "", err
		}
		sim.Run(j.ResolvedSteps())
		return x.lbmFinish(j, sim)
	case KindCG:
		got, stats, err := cgAdvance(j, nil, j.ResolvedSteps())
		if err != nil {
			return "", err
		}
		return cgFinish(j, got, stats, j.ResolvedSteps())
	case KindPDE:
		return pdeFinish(j, pdeAdvance(j, nil, j.ResolvedSteps()))
	}
	return "", fmt.Errorf("batch: no workload adapter for %v", j.Kind)
}

// Checkpoint implements Checkpointer: it advances j's workload to done
// steps — resuming from prev when the job was checkpointed before — and
// captures a restartable image sized by the job's per-node footprint.
func (x SimExecutor) Checkpoint(j *Job, prev *Snapshot, done int) (*Snapshot, error) {
	prevSteps := 0
	if prev != nil {
		prevSteps = prev.Steps
	}
	delta := done - prevSteps
	if delta < 0 {
		delta = 0
		done = prevSteps
	}
	snap := &Snapshot{Steps: done, Bytes: memoryNeed(j.Kind, j.ResolvedProblem(), j.Nodes)}
	switch j.Kind {
	case KindLBM:
		var sim *cluster.Sim
		if prev != nil {
			sim = prev.state.(*cluster.Sim)
		} else {
			var err error
			if sim, err = buildLBMSim(j); err != nil {
				return nil, err
			}
		}
		sim.Run(delta)
		snap.state = sim
	case KindCG:
		var x0 []float32
		if prev != nil {
			x0 = prev.state.([]float32)
		}
		got, _, err := cgAdvance(j, x0, delta)
		if err != nil {
			return nil, err
		}
		snap.state = got
	case KindPDE:
		var field []float32
		if prev != nil {
			field = prev.state.([]float32)
		}
		snap.state = pdeAdvance(j, field, delta)
	default:
		return nil, fmt.Errorf("batch: no workload adapter for %v", j.Kind)
	}
	return snap, nil
}

// Resume implements Checkpointer: it runs the remaining steps from the
// snapshot and produces the job's result summary.
func (x SimExecutor) Resume(j *Job, snap *Snapshot) (string, error) {
	left := max(j.ResolvedSteps()-snap.Steps, 0)
	switch j.Kind {
	case KindLBM:
		sim := snap.state.(*cluster.Sim)
		sim.Run(left)
		return x.lbmFinish(j, sim)
	case KindCG:
		got, stats, err := cgAdvance(j, snap.state.([]float32), left)
		if err != nil {
			return "", err
		}
		return cgFinish(j, got, stats, snap.Steps+stats.Iterations)
	case KindPDE:
		return pdeFinish(j, pdeAdvance(j, snap.state.([]float32), left))
	}
	return "", fmt.Errorf("batch: no workload adapter for %v", j.Kind)
}

// lbmGlobal returns the global extents of j's wind tunnel on its gang
// grid (a pure function of the gang size, so it is identical across a
// preempted job's dispatches).
func lbmGlobal(j *Job) (sched.NodeGrid, [3]int) {
	g := sched.Arrange3D(j.Nodes)
	prob := j.ResolvedProblem()
	return g, [3]int{prob[0] * g.PX, prob[1] * g.PY, prob[2] * g.PZ}
}

// buildLBMSim assembles j's wind-tunnel flow: inlet on x-, open outflow
// on x+, periodic transverse faces. The gang's ranks map onto the
// Arrange3D grid in node order (Allocation.Port), so a non-contiguous
// gang simply sees some neighboring ranks on non-adjacent switch ports.
func buildLBMSim(j *Job) (*cluster.Sim, error) {
	g, global := lbmGlobal(j)
	cfg := cluster.Config{Global: global, Grid: g, Tau: 0.7}
	cfg.Faces[lbm.FaceXNeg] = lbm.FaceSpec{Type: lbm.Inlet, U: vecmath.Vec3{0.04, 0, 0}}
	cfg.Faces[lbm.FaceXPos] = lbm.FaceSpec{Type: lbm.Outflow}
	return cluster.New(cfg)
}

// lbmFinish validates the completed flow and (optionally) traces a
// pollutant cloud through it.
func (x SimExecutor) lbmFinish(j *Job, sim *cluster.Sim) (string, error) {
	g, global := lbmGlobal(j)
	mass := sim.TotalMass()
	if math.IsNaN(mass) || mass <= 0 {
		return "", fmt.Errorf("batch: LBM diverged, total mass %v", mass)
	}
	detail := fmt.Sprintf("lbm %dx%dx%d on %v: %d steps, mass %.1f",
		global[0], global[1], global[2], g, j.ResolvedSteps(), mass)
	if x.TracerParticles > 0 {
		field := tracer.FromMacro(global[0], global[1], global[2],
			sim.GatherDensity(), sim.GatherVelocity(), nil)
		cloud := tracer.NewCloud(int64(j.ID))
		cloud.Release(1, global[1]/2, global[2]/2, x.TracerParticles)
		for i := 0; i < j.ResolvedSteps(); i++ {
			cloud.Step(field)
		}
		c := cloud.Centroid()
		detail += fmt.Sprintf("; tracer centroid (%.1f, %.1f, %.1f)", c[0], c[1], c[2])
	}
	return detail, nil
}

// cgTarget returns the manufactured solution of j's Poisson system.
func cgTarget(rows int) []float32 {
	want := make([]float32, rows)
	for i := range want {
		want[i] = float32(i%7) * 0.25
	}
	return want
}

// cgAdvance runs iters iterations of the Figure 15 distributed CG, one
// rank per gang node, starting from iterate x0 (nil = zero). A restart
// solves the residual-correction system A e = b - A x0 and returns
// x0 + e: mathematically a true warm restart, though the Krylov space
// built before the checkpoint is gone.
func cgAdvance(j *Job, x0 []float32, iters int) ([]float32, sparse.SolveStats, error) {
	n := j.ResolvedProblem()[0]
	A := sparse.Poisson2D(n)
	ranks := j.Nodes
	if A.Rows < ranks {
		return nil, sparse.SolveStats{}, fmt.Errorf("batch: %d unknowns cannot split over %d ranks", A.Rows, ranks)
	}
	rhs := A.MulVec(cgTarget(A.Rows))
	target := rhs
	if x0 != nil {
		ax := A.MulVec(x0)
		target = make([]float32, len(rhs))
		for i := range rhs {
			target[i] = rhs[i] - ax[i]
		}
	}
	off, sz := sparse.RowPartition(A.Rows, ranks)
	corr := make([]float32, A.Rows)
	stats := make([]sparse.SolveStats, ranks)
	world := mpi.NewWorld(ranks)
	world.Run(func(c *mpi.Comm) {
		r := c.Rank()
		d := sparse.NewDistMatrix(A, r, ranks)
		d.Setup(c)
		local, st := sparse.DistCG(c, d, target[off[r]:off[r]+sz[r]], 1e-6, iters)
		stats[r] = st
		copy(corr[off[r]:], local)
	})
	if x0 != nil {
		for i := range corr {
			corr[i] += x0[i]
		}
	}
	return corr, stats[0], nil
}

// cgFinish validates the final iterate against the manufactured
// solution.
func cgFinish(j *Job, got []float32, stats sparse.SolveStats, iters int) (string, error) {
	if !stats.Converged {
		return "", fmt.Errorf("batch: CG stopped at %d iterations, residual %.2e",
			iters, stats.Residual)
	}
	want := cgTarget(len(got))
	var maxErr float64
	for i := range got {
		if d := math.Abs(float64(got[i] - want[i])); d > maxErr {
			maxErr = d
		}
	}
	return fmt.Sprintf("cg %d unknowns on %d ranks: %d iters, residual %.1e, max err %.2e",
		len(got), j.Nodes, iters, stats.Residual, maxErr), nil
}

// pdeHot returns j's initial condition: a hot block in the domain
// center (a pure function, so restarts see the same conserved target).
func pdeHot(nx, ny, nz int) func(x, y, z int) float32 {
	return func(x, y, z int) float32 {
		if x >= nx/4 && x < 3*nx/4 && y >= ny/4 && y < 3*ny/4 && z >= nz/4 && z < 3*nz/4 {
			return 1
		}
		return 0
	}
}

// pdeAdvance runs steps of the slab-parallel heat solver, one z-slab of
// Problem[2] planes per gang node, starting from the gathered field
// (nil = the hot-block initial condition) and returning the new field.
func pdeAdvance(j *Job, field []float32, steps int) []float32 {
	p := j.ResolvedProblem()
	nx, ny, nz := p[0], p[1], p[2]*j.Nodes
	init := pdeHot(nx, ny, nz)
	if field != nil {
		init = func(x, y, z int) float32 { return field[(z*ny+y)*nx+x] }
	}
	return pde.ParallelHeat3D(nx, ny, nz, 1.0/6.0, j.Nodes, steps, init)
}

// pdeFinish checks that the periodic domain conserved total heat.
func pdeFinish(j *Job, field []float32) (string, error) {
	p := j.ResolvedProblem()
	nx, ny, nz := p[0], p[1], p[2]*j.Nodes
	hot := pdeHot(nx, ny, nz)
	var want float64
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				want += float64(hot(x, y, z))
			}
		}
	}
	var got float64
	for _, v := range field {
		got += float64(v)
	}
	if want > 0 && math.Abs(got-want)/want > 1e-3 {
		return "", fmt.Errorf("batch: heat not conserved: %.4f -> %.4f", want, got)
	}
	return fmt.Sprintf("pde heat %dx%dx%d on %d slabs: %d steps, heat drift %.1e",
		nx, ny, nz, j.Nodes, j.ResolvedSteps(), math.Abs(got-want)), nil
}

// SyntheticStream is SyntheticMix with deterministic staggered
// arrivals: successive jobs are spaced by a uniform random gap in
// [0, 2*meanGap], so the queue sees the machine part-loaded at every
// depth instead of everything arriving at once — the shape the
// property tests replay under every policy × quantum × preemption
// combination. The node/step/priority stream is identical to
// SyntheticMix(seed, ...); only Submit differs.
func SyntheticStream(seed int64, count, maxNodes int, meanGap time.Duration) []*Job {
	jobs := SyntheticMix(seed, count, maxNodes)
	if meanGap <= 0 {
		return jobs
	}
	// A separate rng keeps the mix's own stream untouched, so a seeded
	// mix and its streamed variant differ only in arrivals.
	rng := rand.New(rand.NewSource(seed ^ 0x57bea))
	var at time.Duration
	for _, j := range jobs {
		j.Submit = at
		at += time.Duration(rng.Int63n(int64(2*meanGap) + 1))
	}
	return jobs
}

// SyntheticMix generates a deterministic skewed batch of count jobs for
// a maxNodes-node cluster: mostly narrow short jobs with occasional
// wide long ones — the workload shape that separates backfill from
// FIFO. Problem sizes follow the paper's sub-domain scales; nothing is
// executed unless the scheduler carries an Executor.
func SyntheticMix(seed int64, count, maxNodes int) []*Job {
	rng := rand.New(rand.NewSource(seed))
	clamp := func(v int) int {
		if v < 1 {
			return 1
		}
		if v > maxNodes {
			return maxNodes
		}
		return v
	}
	// intn tolerates the degenerate bounds of tiny clusters.
	intn := func(n int) int {
		if n <= 0 {
			return 0
		}
		return rng.Intn(n)
	}
	jobs := make([]*Job, 0, count)
	for i := 0; i < count; i++ {
		kind := JobKind(rng.Intn(int(numKinds)))
		var nodes int
		switch p := rng.Float64(); {
		case p < 0.60:
			nodes = clamp(1 + intn(2))
		case p < 0.85:
			nodes = clamp(2 + intn(maxNodes/4+1))
		case p < 0.95:
			nodes = clamp(maxNodes/4 + 1 + intn(maxNodes/4+1))
		default:
			nodes = clamp(maxNodes/2 + 1 + intn(maxNodes/2))
		}
		// User rotates on the index, not the rng stream, so adding
		// fair-share attribution left every seeded mix unchanged.
		j := &Job{
			Name:     fmt.Sprintf("%s-%04d", kind, i),
			Kind:     kind,
			Nodes:    nodes,
			Priority: rng.Intn(5),
			User:     fmt.Sprintf("u%d", i%4),
		}
		switch kind {
		case KindCG:
			n := 32 + 8*rng.Intn(5)
			j.Problem = [3]int{n, n, 1}
			j.Steps = 100 + rng.Intn(300)
		case KindPDE:
			s := 32 + 8*rng.Intn(5)
			j.Problem = [3]int{s, s, 8 + 4*rng.Intn(3)}
			j.Steps = 50 + rng.Intn(450)
		default:
			s := 40 + 8*rng.Intn(6)
			j.Problem = [3]int{s, s, s}
			j.Steps = 20 + rng.Intn(180)
		}
		jobs = append(jobs, j)
	}
	return jobs
}
