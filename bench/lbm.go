package main

import (
	"fmt"
	"math"
	"time"

	"gpucluster/internal/cluster"
	"gpucluster/internal/gpu"
	"gpucluster/internal/lbm"
	"gpucluster/internal/lbmgpu"
	"gpucluster/internal/sched"
	"gpucluster/internal/vecmath"
)

// tunnel is the wind-tunnel shape both LBM workloads run: inlet and
// outflow on x, walls elsewhere, and a solid block in the middle of the
// x-y plane rising from the floor past the half height, so that on a
// grid split in two along every axis it straddles every rank border.
func tunnel(global [3]int, grid sched.NodeGrid) cluster.Config {
	cfg := cluster.Config{Global: global, Grid: grid, Tau: 0.8}
	gx, gy, gz := global[0], global[1], global[2]
	cfg.Geometry = func(x, y, z int) bool {
		return x >= gx/2-gx/8 && x < gx/2+gx/8 && y >= gy/2-gy/8 && y < gy/2+gy/8 && z < gz*5/8
	}
	cfg.Faces[lbm.FaceXNeg] = lbm.FaceSpec{Type: lbm.Inlet, U: vecmath.Vec3{0.04, 0, 0}}
	cfg.Faces[lbm.FaceXPos] = lbm.FaceSpec{Type: lbm.Outflow}
	for _, f := range []int{lbm.FaceYNeg, lbm.FaceYPos, lbm.FaceZNeg, lbm.FaceZPos} {
		cfg.Faces[f] = lbm.FaceSpec{Type: lbm.Wall}
	}
	return cfg
}

// serialLattice is the single lbm.Lattice equivalent of cfg: the
// correctness reference (the repo's own tests pin the cluster to it bit
// for bit) and the single-thread baseline.
func serialLattice(cfg cluster.Config) *lbm.Lattice {
	l := lbm.New(cfg.Global[0], cfg.Global[1], cfg.Global[2], cfg.Tau)
	l.Faces = cfg.Faces
	for z := 0; z < l.NZ; z++ {
		for y := 0; y < l.NY; y++ {
			for x := 0; x < l.NX; x++ {
				if cfg.Geometry(x, y, z) {
					l.SetSolid(x, y, z, true)
				}
			}
		}
	}
	l.Init(1, vecmath.Vec3{})
	return l
}

// tracedNode times one rank's layer boundaries: the whole step, each
// exchange callback inside it, and each pack and unpack inside those.
type tracedNode struct {
	cluster.Node
	tk *track
}

func (n *tracedNode) Step(exchange func(dim int)) {
	sp := n.tk.begin("node.step")
	n.Node.Step(func(dim int) {
		ex := n.tk.begin("mpi.exchange")
		exchange(dim)
		n.tk.end(ex)
	})
	n.tk.end(sp)
}

func (n *tracedNode) PackBorder(dim, dir int) []float32 {
	sp := n.tk.begin("node.pack")
	out := n.Node.PackBorder(dim, dir)
	n.tk.end(sp)
	return out
}

func (n *tracedNode) UnpackGhost(dim, dir int, data []float32) {
	sp := n.tk.begin("node.unpack")
	n.Node.UnpackGhost(dim, dir, data)
	n.tk.end(sp)
}

// lbmRun is an LBM workload: a cluster.Sim advanced stepsPerOp steps per op.
type lbmRun struct {
	tr         *tracer
	root       *track
	gpu        bool
	ops        int
	stepsPerOp int
	cfg        cluster.Config
	sim        *cluster.Sim
	devs       []*gpu.Device

	solid      []bool    // global solid mask, x-fastest
	refDensity []float32 // serial density after timed op 0
	serialStep time.Duration
	lastMass   float64

	// Device and bus counters summed over the timed ops only: the
	// checks between ops read fields back over the simulated bus.
	dev devCounters
}

// devCounters are the gpu.Device and bus.Bus counters of all ranks.
type devCounters struct {
	passes, fragments, copies, upBytes int64
	busTime                            time.Duration
}

func setupLBMCPU(p params, tr *tracer) (runner, error) {
	r := &lbmRun{tr: tr, stepsPerOp: 28, ops: p.scale(100, 5)}
	r.cfg = tunnel([3]int{32, 32, 32}, sched.NodeGrid{PX: 2, PY: 2, PZ: 2})
	if p.quick {
		r.stepsPerOp = 5
		r.cfg = tunnel([3]int{16, 16, 16}, r.cfg.Grid)
	}
	return r.setup(p)
}

func setupLBMGPU(p params, tr *tracer) (runner, error) {
	r := &lbmRun{tr: tr, gpu: true, stepsPerOp: 9, ops: p.scale(104, 5)}
	r.cfg = tunnel([3]int{32, 32, 16}, sched.NodeGrid{PX: 2, PY: 2, PZ: 1})
	if p.quick {
		r.stepsPerOp = 2
		r.cfg = tunnel([3]int{16, 16, 8}, r.cfg.Grid)
	}
	return r.setup(p)
}

func (r *lbmRun) setup(p params) (runner, error) {
	r.root = r.tr.newTrack("harness")
	r.cfg.NewNode = func(rank int, sub *lbm.Lattice) (cluster.Node, error) {
		var node cluster.Node = &cluster.CPUNode{L: sub}
		if r.gpu {
			// One fragment worker per device: the ranks already
			// occupy every core.
			dev := gpu.New(gpu.Config{Name: "rank-gpu", TextureMemory: 256 << 20, Workers: 1})
			sim, err := lbmgpu.New(dev, sub)
			if err != nil {
				return nil, err
			}
			r.devs = append(r.devs, dev)
			node = sim
		}
		if r.tr == nil {
			return node, nil
		}
		return &tracedNode{node, r.tr.newTrack(fmt.Sprintf("rank %d", rank))}, nil
	}
	var err error
	if r.sim, err = cluster.New(r.cfg); err != nil {
		return nil, err
	}

	// Serial reference through the warm-up ops and timed op 0; its
	// stepping rate is the single-thread baseline.
	ref := serialLattice(r.cfg)
	steps := (warmupOps + 1) * r.stepsPerOp
	t0 := time.Now()
	for s := 0; s < steps; s++ {
		ref.Step()
	}
	r.serialStep = time.Since(t0) / time.Duration(steps)
	var f [lbm.Q]float32
	for z := 0; z < ref.NZ; z++ {
		for y := 0; y < ref.NY; y++ {
			for x := 0; x < ref.NX; x++ {
				ref.Gather(&f, x, y, z)
				rho, _, _, _ := lbm.Moments(&f)
				r.refDensity = append(r.refDensity, rho)
				r.solid = append(r.solid, ref.IsSolid(x, y, z))
			}
		}
	}
	if p.corruptRef {
		r.refDensity[0] = math.Nextafter32(r.refDensity[0], 2)
	}

	for i := -warmupOps; i < 0; i++ {
		r.op(i)
	}
	r.lastMass = r.sim.TotalMass()
	return r, nil
}

func (r *lbmRun) deviceCounters() (c devCounters) {
	for _, d := range r.devs {
		c.passes += d.Stats.Passes
		c.fragments += d.Stats.Fragments
		c.copies += d.Stats.TextureCopies
		c.upBytes += d.Bus().Up.Bytes
		c.busTime += d.Bus().Up.Time + d.Bus().Down.Time
	}
	return c
}

func (r *lbmRun) prepare(int) {}

func (r *lbmRun) op(i int) float64 {
	before := r.deviceCounters()
	r.sim.Run(r.stepsPerOp)
	if i >= 0 {
		after := r.deviceCounters()
		r.dev.passes += after.passes - before.passes
		r.dev.fragments += after.fragments - before.fragments
		r.dev.copies += after.copies - before.copies
		r.dev.upBytes += after.upBytes - before.upBytes
		r.dev.busTime += after.busTime - before.busTime
	}
	g := r.cfg.Global
	return float64(g[0] * g[1] * g[2] * r.stepsPerOp)
}

// massDriftLimit bounds the relative change of total mass over one op.
// The tunnel is open (inlet and outflow), so mass is not conserved; the
// developing flow moves it by well under this per op, while an unstable
// or corrupted field leaves the bound, or the finite numbers, at once.
const massDriftLimit = 5e-2

func (r *lbmRun) verify(i int) bool {
	mass := r.sim.TotalMass()
	drift := math.Abs(mass-r.lastMass) / r.lastMass
	r.lastMass = mass
	if math.IsNaN(drift) || drift > massDriftLimit {
		return false
	}
	if i != 0 {
		return true
	}
	for k, rho := range r.sim.GatherDensity() {
		if !r.solid[k] && rho != r.refDensity[k] {
			return false
		}
	}
	return true
}

// Every op advances the same lattice by the same number of steps: one kind.
func (r *lbmRun) timed(m *measure) { m.runOps(r.ops, 1, r.tr, r.root, r) }

func (r *lbmRun) layers(m *measure) {
	tracedSteps := float64(len(m.ops) * r.stepsPerOp)
	allSteps := float64(m.attempted * r.stepsPerOp)
	step := ms(quantile(m.ops, 0.5)) / float64(r.stepsPerOp)
	m.set("cluster.step_ms_p50", step)
	m.set("lbm.serial_step_ms", ms(r.serialStep))
	m.set("cluster.parallel_ratio", ms(r.serialStep)/step)

	// Per rank, then the slowest rank: it sets the step time.
	self := func(a spanSum) time.Duration { return a.self }
	total := func(a spanSum) time.Duration { return a.total }
	compute := r.tr.slowestTrack("node.step", self)
	m.set("lbm.compute_ms_per_step", ms(compute)/tracedSteps)
	m.set("mpi.wait_ms_per_step", ms(r.tr.slowestTrack("mpi.exchange", self))/tracedSteps)
	pack, unpack := "lbm.pack_us_per_step", "lbm.unpack_us_per_step"
	if r.gpu {
		pack, unpack = "lbmgpu.pack_us_per_step", "lbmgpu.unpack_us_per_step"
	}
	m.set(pack, us(r.tr.slowestTrack("node.pack", total))/tracedSteps)
	m.set(unpack, us(r.tr.slowestTrack("node.unpack", total))/tracedSteps)

	var msgs, floats int64
	for _, st := range r.sim.MPIStats() {
		msgs += st.MessagesSent
		floats += st.FloatsSent
	}
	everyStep := float64(r.sim.Steps())
	m.set("mpi.messages_per_step", float64(msgs)/everyStep)
	m.set("mpi.floats_per_step", float64(floats)/everyStep)

	if r.gpu {
		ranks := float64(len(r.devs))
		m.set("gpu.passes_per_step", float64(r.dev.passes)/allSteps)
		m.set("gpu.fragments_per_step", float64(r.dev.fragments)/allSteps)
		m.set("gpu.texture_copies_per_step", float64(r.dev.copies)/allSteps)
		m.set("gpu.ns_per_fragment", float64(compute)/tracedSteps/(float64(r.dev.fragments)/allSteps/ranks))
		m.set("bus.readback_bytes_per_step", float64(r.dev.upBytes)/allSteps)
		m.set("bus.sim_transfer_ms_per_step", ms(r.dev.busTime)/allSteps/ranks)
	}
}

func (r *lbmRun) close() {}
