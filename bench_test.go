// Package gpucluster's top-level benchmarks regenerate each table and
// figure of the paper (through the calibrated performance model) and
// measure the functional simulators for real: one benchmark per
// table/figure plus micro-benchmarks of the kernels under them, layer
// by layer of the package map in docs/ARCHITECTURE.md.
//
// Run: go test -bench=. -benchmem
package gpucluster

import (
	"fmt"
	"testing"
	"time"

	"gpucluster/internal/batch"
	"gpucluster/internal/city"
	"gpucluster/internal/cluster"
	"gpucluster/internal/gpu"
	"gpucluster/internal/lbm"
	"gpucluster/internal/lbmgpu"
	"gpucluster/internal/netsim"
	"gpucluster/internal/perfmodel"
	"gpucluster/internal/sched"
	"gpucluster/internal/sparse"
	"gpucluster/internal/tracer"
	"gpucluster/internal/vecmath"
)

var sub80 = [3]int{80, 80, 80}

// sink defeats dead-code elimination.
var sink interface{}

// BenchmarkTable1 regenerates the Table 1 sweep (per-step CPU/GPU cluster
// times for 1..32 nodes) through the performance model.
func BenchmarkTable1(b *testing.B) {
	h := perfmodel.Paper()
	for i := 0; i < b.N; i++ {
		sink = h.FixedSubDomainSweep(perfmodel.PaperNodeCounts, sub80)
	}
}

// BenchmarkTable2 regenerates the throughput/efficiency table.
func BenchmarkTable2(b *testing.B) {
	h := perfmodel.Paper()
	for i := 0; i < b.N; i++ {
		sink = perfmodel.Throughput(h.FixedSubDomainSweep(perfmodel.PaperNodeCounts, sub80))
	}
}

// BenchmarkFig8NetworkSeries regenerates the Figure 8 network-time split.
func BenchmarkFig8NetworkSeries(b *testing.B) {
	h := perfmodel.Paper()
	for i := 0; i < b.N; i++ {
		rows := h.FixedSubDomainSweep(perfmodel.PaperNodeCounts, sub80)
		total := 0.0
		for _, r := range rows {
			total += r.NetTotal.Seconds() - r.NetNonOverlap.Seconds()
		}
		sink = total
	}
}

// BenchmarkFig9SpeedupSeries regenerates the Figure 9 speedup curve.
func BenchmarkFig9SpeedupSeries(b *testing.B) {
	h := perfmodel.Paper()
	for i := 0; i < b.N; i++ {
		rows := h.FixedSubDomainSweep(perfmodel.PaperNodeCounts, sub80)
		s := 0.0
		for _, r := range rows {
			s += r.Speedup
		}
		sink = s
	}
}

// BenchmarkFig10EfficiencySeries regenerates the Figure 10 curve.
func BenchmarkFig10EfficiencySeries(b *testing.B) {
	h := perfmodel.Paper()
	for i := 0; i < b.N; i++ {
		rows := perfmodel.Throughput(h.FixedSubDomainSweep(perfmodel.PaperNodeCounts, sub80))
		e := 0.0
		for _, r := range rows {
			e += r.Efficiency
		}
		sink = e
	}
}

// BenchmarkStrongScaling regenerates the Section 4.4 fixed-problem sweep.
func BenchmarkStrongScaling(b *testing.B) {
	h := perfmodel.Paper()
	for i := 0; i < b.N; i++ {
		rows, err := h.StrongScaling([3]int{160, 160, 80}, []int{4, 8, 16, 32})
		if err != nil {
			b.Fatal(err)
		}
		sink = rows
	}
}

// BenchmarkClusterStepModel measures one evaluation of the composed
// per-step model, the call every LBM/PDE runtime estimate makes, on the
// paper's 30 nodes and at the scheduler's scales. Its network column is
// a closed form of the grid, so ns/op is bounded whatever the node count
// and allocs/op is 0 (TestClusterStepZeroAlloc).
func BenchmarkClusterStepModel(b *testing.B) {
	h := perfmodel.Paper()
	for _, nodes := range []int{30, 1000, 10000} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			g := sched.Arrange3D(nodes)
			var br perfmodel.StepBreakdown
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				br = h.ClusterStep(g, sub80, perfmodel.Options{})
			}
			sink = br
		})
	}
}

// BenchmarkAblations runs the four design-choice ablations (A1-A4).
func BenchmarkAblations(b *testing.B) {
	h := perfmodel.Paper()
	nodes := []int{4, 16, 32}
	for i := 0; i < b.N; i++ {
		sink = h.AblationDiagonal(nodes, sub80)
		sink = h.AblationBarrier(nodes, sub80)
		sink = h.AblationPCIe(nodes, sub80)
		sink = h.AblationShape(8)
	}
}

// BenchmarkSingleNodeCPUStep measures the real CPU reference step (the
// functional analog of Table 1's CPU column, scaled to 32^3): on the
// periodic empty box, which never takes a bounce-back branch, and on a
// wind tunnel (inlet, outflow, four walls and a block on the floor).
func BenchmarkSingleNodeCPUStep(b *testing.B) {
	periodic := lbm.New(32, 32, 32, 0.8)
	tunnel := lbm.New(32, 32, 32, 0.8)
	tunnel.Faces[lbm.FaceXNeg] = lbm.FaceSpec{Type: lbm.Inlet, U: vecmath.Vec3{0.04, 0, 0}}
	tunnel.Faces[lbm.FaceXPos] = lbm.FaceSpec{Type: lbm.Outflow}
	for _, f := range []int{lbm.FaceYNeg, lbm.FaceYPos, lbm.FaceZNeg, lbm.FaceZPos} {
		tunnel.Faces[f] = lbm.FaceSpec{Type: lbm.Wall}
	}
	for z := 0; z < 20; z++ {
		for y := 12; y < 20; y++ {
			for x := 12; x < 20; x++ {
				tunnel.SetSolid(x, y, z, true)
			}
		}
	}
	for _, c := range []struct {
		name string
		l    *lbm.Lattice
	}{{"periodic", periodic}, {"tunnel", tunnel}} {
		b.Run(c.name, func(b *testing.B) {
			l := c.l
			l.Init(1, vecmath.Vec3{0.02, 0, 0})
			b.SetBytes(int64(l.Cells()) * lbm.Q * 4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Step()
			}
			b.ReportMetric(float64(l.Cells())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
		})
	}
}

// BenchmarkSingleNodeGPUStep measures the simulated-GPU step (the
// functional analog of Table 1's GPU computation column, scaled to 16^3;
// the simulated GPU pays interpreter overhead per fragment).
func BenchmarkSingleNodeGPUStep(b *testing.B) {
	host := lbm.New(16, 16, 16, 0.8)
	host.Init(1, vecmath.Vec3{0.02, 0, 0})
	sim, err := lbmgpu.New(gpu.New(gpu.Config{TextureMemory: 256 << 20}), host)
	if err != nil {
		b.Fatal(err)
	}
	noop := func(int) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step(noop)
	}
	b.ReportMetric(float64(16*16*16)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
}

// BenchmarkClusterStep measures the functional parallel LBM across node
// counts (weak scaling, 16^3 per node — the laptop-scale Table 1).
func BenchmarkClusterStep(b *testing.B) {
	for _, nodes := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			g := sched.Arrange2D(nodes)
			cfg := cluster.Config{
				Global: [3]int{16 * g.PX, 16 * g.PY, 16},
				Grid:   g,
				Tau:    0.8,
			}
			cfg.Faces[lbm.FaceXNeg] = lbm.FaceSpec{Type: lbm.Inlet, U: vecmath.Vec3{0.03, 0, 0}}
			cfg.Faces[lbm.FaceXPos] = lbm.FaceSpec{Type: lbm.Outflow}
			sim, err := cluster.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			cells := float64(cfg.Global[0] * cfg.Global[1] * cfg.Global[2])
			b.ReportAllocs()
			b.ResetTimer()
			sim.Run(b.N)
			b.ReportMetric(cells*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
		})
	}
}

// BenchmarkCollisionKernel measures the BGK and MRT collision operators.
func BenchmarkCollisionKernel(b *testing.B) {
	var f, post, feq [lbm.Q]float32
	lbm.Feq(&f, 1, 0.05, 0.01, -0.02)
	b.Run("BGK", func(b *testing.B) {
		omega := float32(1 / 0.8)
		for i := 0; i < b.N; i++ {
			rho, ux, uy, uz := lbm.Moments(&f)
			lbm.Feq(&feq, rho, ux, uy, uz)
			for k := 0; k < lbm.Q; k++ {
				post[k] = f[k] - omega*(f[k]-feq[k])
			}
		}
		sink = post
	})
	b.Run("MRT", func(b *testing.B) {
		mrt := lbm.NewMRT(0.8)
		for i := 0; i < b.N; i++ {
			rho, ux, uy, uz := lbm.Moments(&f)
			mrt.Collide(&f, &post, rho, ux, uy, uz)
		}
		sink = post
	})
}

// BenchmarkBorderExchange measures the pack/exchange/unpack cycle the
// cluster performs each step (one 32^2 face).
func BenchmarkBorderExchange(b *testing.B) {
	l := lbm.New(32, 32, 32, 0.8)
	l.Init(1, vecmath.Vec3{})
	data := make([]float32, l.BorderLen(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.PackBorderInto(data, 0, +1)
		l.UnpackGhost(0, -1, data)
	}
}

// BenchmarkGPUBorderGather measures the paper's border-gather pass plus
// single read-back on the simulated GPU.
func BenchmarkGPUBorderGather(b *testing.B) {
	host := lbm.New(24, 24, 24, 0.8)
	host.Init(1, vecmath.Vec3{})
	sim, err := lbmgpu.New(gpu.New(gpu.Config{TextureMemory: 512 << 20}), host)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = sim.PackBorder(0, +1)
	}
}

// BenchmarkGPUPass measures a raw fragment-program pass (gather stencil
// over 256x256).
func BenchmarkGPUPass(b *testing.B) {
	dev := gpu.New(gpu.Config{TextureMemory: 64 << 20})
	tex, _ := dev.NewTexture2D("t", 256, 256)
	pb, _ := dev.NewPBuffer("p", 256, 256)
	prog := func(t []gpu.Sampler, y, x0 int, out []vecmath.Vec4) {
		for k := range out {
			x := x0 + k
			out[k] = t[0].Fetch(x-1, y).Add(t[0].Fetch(x+1, y)).Scale(0.5)
		}
	}
	b.SetBytes(256 * 256 * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dev.Run(gpu.Pass{Target: pb, Textures: []gpu.Sampler{tex}, Program: prog}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDispersionTracer measures tracer propagation (Section 5)
// through the gathered-field path the dispersion application takes, in
// a uniform flow.
func BenchmarkDispersionTracer(b *testing.B) {
	const nx, ny, nz = 48, 32, 16
	den := make([]float32, nx*ny*nz)
	vel := make([]vecmath.Vec3, nx*ny*nz)
	for i := range den {
		den[i], vel[i] = 1, vecmath.Vec3{0.05, 0, 0}
	}
	field := tracer.FromMacro(nx, ny, nz, den, vel, nil)
	cloud := tracer.NewCloud(1)
	cloud.Release(4, 16, 8, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cloud.Step(field)
	}
	b.ReportMetric(1e4*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mparticles/s")
}

// BenchmarkCityVoxelize measures the urban-model rasterization.
func BenchmarkCityVoxelize(b *testing.B) {
	c := city.Generate(city.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = c.Voxelize(120, 100, 40, 15)
	}
}

// BenchmarkCGPoisson measures the serial CG solve (Section 6 solvers).
func BenchmarkCGPoisson(b *testing.B) {
	a := sparse.Poisson2D(24)
	x := make([]float32, a.Rows)
	for i := range x {
		x[i] = float32(i % 7)
	}
	rhs := a.MulVec(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st := sparse.CG(a, rhs, 1e-6, 2000)
		if !st.Converged {
			b.Fatal("CG failed")
		}
	}
}

// BenchmarkBatchThroughput measures batch-scheduler throughput: jobs
// placed per second draining a 1000-job mixed queue (LBM, CG, PDE
// kinds) on a 32-node cluster under EASY backfill. Estimation runs
// through the perfmodel at submit; nothing executes. jobs/s is the
// whole iteration (mix generation, submit, drain, report); the phase
// metrics are those of BenchmarkBatchThroughputScale, so the two
// benchmarks can be compared layer by layer.
func BenchmarkBatchThroughput(b *testing.B) {
	const jobs = 1000
	var phases submitDrain
	for i := 0; i < b.N; i++ {
		s := batch.New(batch.Config{
			Cluster: batch.NewCluster(32, netsim.GigabitSwitch(32)),
			Policy:  batch.Backfill,
		})
		mix := batch.SyntheticMix(1, jobs, 32)
		t0 := time.Now()
		for _, j := range mix {
			if err := s.Submit(j); err != nil {
				b.Fatal(err)
			}
		}
		t1 := time.Now()
		rep := s.Run()
		phases.add(t0, t1)
		if len(rep.Jobs) != jobs {
			b.Fatalf("finished %d of %d jobs", len(rep.Jobs), jobs)
		}
		sink = rep
	}
	b.ReportMetric(jobs*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	phases.report(b, jobs)
}

// submitDrain splits a BatchThroughput benchmark's iterations into their
// two layers: submit (validation plus the runtime estimate) and drain
// (the scheduler's event loop).
type submitDrain struct{ submit, drain time.Duration }

// add accounts one iteration whose submit loop ran from t0 to t1 and
// whose drain has just returned.
func (p *submitDrain) add(t0, t1 time.Time) {
	p.submit += t1.Sub(t0)
	p.drain += time.Since(t1)
}

func (p *submitDrain) report(b *testing.B, jobs int) {
	total := float64(jobs) * float64(b.N)
	b.ReportMetric(float64(p.submit.Nanoseconds())/total, "submit-ns/job")
	b.ReportMetric(total/p.drain.Seconds(), "drain-jobs/s")
}

// BenchmarkBatchThroughputScale is the datacenter-scale pin: one
// million queued jobs drained on a 10,000-node cluster under EASY
// backfill with a production-style bounded backfill depth
// (Config.BackfillDepth; unbounded scans are quadratic in queue depth
// and would take hours here). It exercises the free-range index, the
// incremental count-based shadow, the tombstoned queue, and the
// arrival heap at the ROADMAP's target scale. This is the only
// place the 1M-job/10k-node configuration is written down: the CI bench
// job runs it on base and head on one runner and fails when head's
// jobs/s is more than 25% below base's (.github/bench.sh). RunUntil is
// used instead of Run so the measurement drains the scheduler without
// materializing a million-entry report copy. jobs/s times submit plus
// drain; submit-ns/job and drain-jobs/s report the two layers apart.
func BenchmarkBatchThroughputScale(b *testing.B) {
	const (
		jobs  = 1_000_000
		nodes = 10_000
		depth = 512
	)
	var phases submitDrain
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mix := batch.SyntheticMix(1, jobs, nodes)
		b.StartTimer()
		s := batch.New(batch.Config{
			Cluster:       batch.NewCluster(nodes, netsim.GigabitSwitch(nodes)),
			Policy:        batch.Backfill,
			BackfillDepth: depth,
		})
		t0 := time.Now()
		for _, j := range mix {
			if err := s.Submit(j); err != nil {
				b.Fatal(err)
			}
		}
		t1 := time.Now()
		s.RunUntil(batch.Forever)
		phases.add(t0, t1)
		for _, j := range mix {
			if j.State != batch.Done {
				b.Fatalf("job %d ended %v, want done", j.ID, j.State)
			}
		}
	}
	b.ReportMetric(jobs*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	phases.report(b, jobs)
}

// BenchmarkBatchThroughputRecorder is BenchmarkBatchThroughput with a
// MemRecorder attached — the observability tax when lifecycle tracing
// is on. Compare against the base benchmark to see what a recorded run
// costs.
func BenchmarkBatchThroughputRecorder(b *testing.B) {
	const jobs = 1000
	rec := &batch.MemRecorder{}
	for i := 0; i < b.N; i++ {
		rec.Reset()
		s := batch.New(batch.Config{
			Cluster:  batch.NewCluster(32, netsim.GigabitSwitch(32)),
			Policy:   batch.Backfill,
			Recorder: rec,
		})
		for _, j := range batch.SyntheticMix(1, jobs, 32) {
			if err := s.Submit(j); err != nil {
				b.Fatal(err)
			}
		}
		rep := s.Run()
		if len(rep.Jobs) != jobs || len(rep.Events) == 0 {
			b.Fatalf("finished %d of %d jobs, %d events", len(rep.Jobs), jobs, len(rep.Events))
		}
		sink = rep
	}
	b.ReportMetric(jobs*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkConservativeDrain drains one SyntheticMix queue on 256 nodes
// under conservative backfilling: batch-drain's conservative leg at its
// own depth (400) and at five times it. Estimates are resolved once per
// job shape before the clock starts, as bench/batch.go does, so jobs/s
// times submit and the event loop alone. A pass that re-planned every
// reservation at every event would grow with the cube of the queue.
func BenchmarkConservativeDrain(b *testing.B) {
	const nodes = 256
	for _, jobs := range []int{400, 2000} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			mix := batch.SyntheticMix(1, jobs, nodes)
			resolveEstimates(mix)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := batch.New(batch.Config{
					Cluster: batch.NewCluster(nodes, netsim.GigabitSwitch(nodes)),
					Policy:  batch.Conservative,
				})
				for _, j := range mix {
					if err := s.Submit(j); err != nil {
						b.Fatal(err)
					}
				}
				s.RunUntil(batch.Forever)
				for _, j := range mix {
					if j.State != batch.Done {
						b.Fatalf("job %d ended %v, want done", j.ID, j.State)
					}
				}
			}
			b.ReportMetric(float64(jobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// resolveEstimates sets every job's Est from one single-step estimate
// per (kind, gang, problem): the estimator is linear in Steps, so this
// prices each job exactly as Submit would, without calling it per job.
func resolveEstimates(jobs []*batch.Job) {
	type shape struct {
		kind    batch.JobKind
		nodes   int
		problem [3]int
	}
	est := batch.NewPerfEstimator()
	perStep := map[shape]time.Duration{}
	for _, j := range jobs {
		sh := shape{j.Kind, j.Nodes, j.Problem}
		d, ok := perStep[sh]
		if !ok {
			d = est.Estimate(&batch.Job{Kind: j.Kind, Nodes: j.Nodes, Problem: j.Problem, Steps: 1})
			perStep[sh] = d
		}
		j.Est = time.Duration(j.Steps) * d
	}
}

// BenchmarkGPUMatVec measures the indirection-texture sparse matvec.
func BenchmarkGPUMatVec(b *testing.B) {
	dev := gpu.New(gpu.Config{TextureMemory: 128 << 20})
	a := sparse.Poisson2D(32)
	g, err := sparse.NewGPUMatVec(dev, a)
	if err != nil {
		b.Fatal(err)
	}
	defer g.Free()
	x := make([]float32, a.Cols)
	for i := range x {
		x[i] = float32(i%13) * 0.1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.MulVec(x); err != nil {
			b.Fatal(err)
		}
	}
}
