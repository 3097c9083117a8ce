// Package cluster implements the parallel LBM of Section 4.3: the global
// lattice is decomposed into 3D blocks, one per node; each simulation
// step the nodes exchange the post-collision velocity distributions at
// their sub-domain borders and advance their block. Exchange proceeds
// dimension by dimension (x, then y including the freshly received x
// ghosts, then z) so that data bound for second-nearest (diagonal)
// neighbors travel indirectly in two axial hops, exactly the simplified
// communication pattern of Figure 7. Within a dimension each rank walks
// the pairwise steps of sched.Build in schedule order, plus one wrap step
// on a split periodic axis, and trades borders with the step's partner
// only: send, then receive. Nodes are goroutines communicating through
// package mpi; each node may compute its block on the CPU reference
// implementation or on a simulated GPU (package lbmgpu via the Node
// interface).
//
// An exchanged payload has exactly one owner at a time and is never
// copied on its way: the slice a Node's PackBorder returns belongs to the
// caller, Run hands it to the step's partner (mpi.Send), and the
// Node whose UnpackGhost receives it keeps it, as the buffer its next
// PackBorder of that face fills — the two directions of a face carry
// equally long payloads. A steady-state step therefore allocates nothing.
package cluster

import (
	"fmt"
	"time"

	"gpucluster/internal/lbm"
	"gpucluster/internal/mpi"
	"gpucluster/internal/sched"
	"gpucluster/internal/vecmath"
)

// Node is one rank's compute backend. The state held between Step calls
// is the post-collision distribution field of the node's block.
type Node interface {
	// Step advances the block one time step. For each dimension it must
	// fill the local (boundary-condition) ghost planes and then invoke
	// exchange(dim), which performs the cluster border exchange for
	// Ghost faces; afterwards it streams and collides.
	Step(exchange func(dim int))
	// PackBorder returns the outgoing border payload for a face.
	PackBorder(dim, dir int) []float32
	// UnpackGhost stores a received payload into a ghost plane.
	UnpackGhost(dim, dir int, data []float32)
	// DensityField returns the interior density field, x-fastest.
	DensityField() []float32
	// VelocityField returns the interior velocity field, x-fastest.
	VelocityField() []vecmath.Vec3
	// TotalMass returns the block's fluid mass.
	TotalMass() float64
}

// Config describes a parallel run.
type Config struct {
	// Global is the global lattice size {NX, NY, NZ}.
	Global [3]int
	// Grid arranges the nodes; Grid.Size() ranks are used.
	Grid sched.NodeGrid
	// Tau is the BGK relaxation time.
	Tau float32
	// Faces are the global domain boundary conditions.
	Faces [lbm.NumFaces]lbm.FaceSpec
	// Geometry marks solid cells in global coordinates; nil means no
	// obstacles.
	Geometry func(x, y, z int) bool
	// Force is a uniform body-force acceleration.
	Force vecmath.Vec3
	// UseMRT selects the MRT collision operator.
	UseMRT bool
	// NewNode builds the per-rank backend from its configured
	// sub-lattice; nil selects the CPU backend.
	NewNode func(rank int, sub *lbm.Lattice) (Node, error)
	// InitState optionally overrides the uniform initial condition with
	// a per-cell equilibrium state in global coordinates.
	InitState func(x, y, z int) (rho float32, u vecmath.Vec3)
	// Timeout is the MPI watchdog (default 30s).
	Timeout time.Duration
}

// ApplyInitState sets a lattice's cells to per-cell equilibrium states;
// offX/offY/offZ translate local to global coordinates. Exported so the
// serial reference in tests and examples can share the exact float path.
func ApplyInitState(l *lbm.Lattice, offX, offY, offZ int,
	state func(x, y, z int) (float32, vecmath.Vec3)) {
	var f [lbm.Q]float32
	for z := 0; z < l.NZ; z++ {
		for y := 0; y < l.NY; y++ {
			for x := 0; x < l.NX; x++ {
				rho, u := state(offX+x, offY+y, offZ+z)
				lbm.Feq(&f, rho, u[0], u[1], u[2])
				l.Scatter(&f, x, y, z)
				r, _, _, _ := lbm.Moments(&f)
				l.Rho[l.Idx(x, y, z)] = r
			}
		}
	}
}

// Block is one rank's sub-domain placement in the global lattice.
type Block struct {
	Rank       int
	X0, Y0, Z0 int
	NX, NY, NZ int
}

// Sim is a parallel LBM simulation: persistent per-rank blocks plus the
// message-passing world that connects them.
type Sim struct {
	cfg    Config
	blocks []Block
	nodes  []Node
	// links holds each rank's exchanges per dimension, in schedule order.
	links [][3][]link
	world *mpi.World
	steps int
}

// link is one exchange of a rank: its partner in a schedule step, and the
// side of the rank's block (dir, -1 or +1) that the partner is on.
type link struct{ peer, dir int }

// New validates the configuration, builds every rank's sub-lattice
// (boundary conditions, geometry, ghost solids) and backend, and returns
// a ready simulation.
func New(cfg Config) (*Sim, error) {
	if !cfg.Grid.Valid() {
		return nil, fmt.Errorf("cluster: invalid node grid %v", cfg.Grid)
	}
	for d := 0; d < 3; d++ {
		if cfg.Global[d] <= 0 {
			return nil, fmt.Errorf("cluster: invalid global size %v", cfg.Global)
		}
	}
	p := [3]int{cfg.Grid.PX, cfg.Grid.PY, cfg.Grid.PZ}
	for d := 0; d < 3; d++ {
		if cfg.Global[d] < p[d] {
			return nil, fmt.Errorf("cluster: %d nodes along dim %d exceed %d cells",
				p[d], d, cfg.Global[d])
		}
	}
	size := cfg.Grid.Size()
	xo, xs := sched.Partition(cfg.Global[0], cfg.Grid.PX)
	yo, ys := sched.Partition(cfg.Global[1], cfg.Grid.PY)
	zo, zs := sched.Partition(cfg.Global[2], cfg.Grid.PZ)

	s := &Sim{
		cfg:    cfg,
		blocks: make([]Block, size),
		nodes:  make([]Node, size),
	}
	for r := 0; r < size; r++ {
		i, j, k := cfg.Grid.Coords(r)
		blk := Block{Rank: r, X0: xo[i], Y0: yo[j], Z0: zo[k], NX: xs[i], NY: ys[j], NZ: zs[k]}
		s.blocks[r] = blk

		sub := lbm.New(blk.NX, blk.NY, blk.NZ, cfg.Tau)
		sub.Force = cfg.Force
		if cfg.UseMRT {
			sub.Collision = lbm.NewMRT(cfg.Tau)
		}
		s.configureFaces(sub, i, j, k)
		s.applyGeometry(sub, blk)
		sub.Init(1, vecmath.Vec3{})
		if cfg.InitState != nil {
			ApplyInitState(sub, blk.X0, blk.Y0, blk.Z0, cfg.InitState)
		}

		var node Node
		var err error
		if cfg.NewNode != nil {
			node, err = cfg.NewNode(r, sub)
			if err != nil {
				return nil, fmt.Errorf("cluster: backend for rank %d: %w", r, err)
			}
		} else {
			node = &CPUNode{L: sub}
		}
		s.nodes[r] = node
	}
	s.links = exchangeLinks(cfg)
	opts := []mpi.Option{}
	if cfg.Timeout > 0 {
		opts = append(opts, mpi.WithTimeout(cfg.Timeout))
	}
	s.world = mpi.NewWorld(size, opts...)
	return s, nil
}

// configureFaces assigns each sub-lattice face: interior faces (and
// periodic wrap faces when a dimension is split) become Ghost, exterior
// faces inherit the global boundary condition.
func (s *Sim) configureFaces(sub *lbm.Lattice, i, j, k int) {
	cfg := s.cfg
	coord := [3]int{i, j, k}
	extent := [3]int{cfg.Grid.PX, cfg.Grid.PY, cfg.Grid.PZ}
	for dim := 0; dim < 3; dim++ {
		for side := 0; side < 2; side++ {
			face := 2*dim + side
			global := cfg.Faces[face]
			interior := (side == 0 && coord[dim] > 0) || (side == 1 && coord[dim] < extent[dim]-1)
			splitPeriodic := global.Type == lbm.Periodic && extent[dim] > 1
			if interior || splitPeriodic {
				sub.Faces[face] = lbm.FaceSpec{Type: lbm.Ghost}
			} else {
				sub.Faces[face] = global
			}
		}
	}
}

// applyGeometry marks solid cells, including ghost cells that map to
// valid (or periodically wrapped) global coordinates, so that obstacles
// crossing sub-domain borders bounce back correctly on both sides.
func (s *Sim) applyGeometry(sub *lbm.Lattice, blk Block) {
	if s.cfg.Geometry == nil {
		return
	}
	wrap := func(v, n int, periodic bool) (int, bool) {
		if v >= 0 && v < n {
			return v, true
		}
		if !periodic {
			return 0, false
		}
		return (v%n + n) % n, true
	}
	perX := s.cfg.Faces[lbm.FaceXNeg].Type == lbm.Periodic
	perY := s.cfg.Faces[lbm.FaceYNeg].Type == lbm.Periodic
	perZ := s.cfg.Faces[lbm.FaceZNeg].Type == lbm.Periodic
	for z := -1; z <= blk.NZ; z++ {
		gz, okz := wrap(blk.Z0+z, s.cfg.Global[2], perZ)
		for y := -1; y <= blk.NY; y++ {
			gy, oky := wrap(blk.Y0+y, s.cfg.Global[1], perY)
			for x := -1; x <= blk.NX; x++ {
				gx, okx := wrap(blk.X0+x, s.cfg.Global[0], perX)
				if okx && oky && okz && s.cfg.Geometry(gx, gy, gz) {
					sub.Solid[sub.Idx(x, y, z)] = true
				}
			}
		}
	}
}

// exchangeLinks lists every rank's exchanges per dimension in the order
// of the Fig. 7 schedule (sched.Build, indirect pattern): a pair (A, B) of
// a step along +dim puts B on A's high side and A on B's low side. A split
// periodic dimension ends with one wrap step, pairing the last rank of
// each line with its first.
func exchangeLinks(cfg Config) [][3][]link {
	g := cfg.Grid
	links := make([][3][]link, g.Size())
	pair := func(dim, a, b int) {
		links[a][dim] = append(links[a][dim], link{peer: b, dir: +1})
		links[b][dim] = append(links[b][dim], link{peer: a, dir: -1})
	}
	for _, st := range sched.Build(g, sched.Indirect) {
		dim := 0
		for st.Axis[dim] == 0 {
			dim++
		}
		for _, p := range st.Pairs {
			pair(dim, p.A, p.B)
		}
	}
	extent := [3]int{g.PX, g.PY, g.PZ}
	for dim := 0; dim < 3; dim++ {
		if cfg.Faces[2*dim].Type != lbm.Periodic || extent[dim] == 1 {
			continue
		}
		for r := range links {
			i, j, k := g.Coords(r)
			c := [3]int{i, j, k}
			if c[dim] == extent[dim]-1 {
				c[dim] = 0
				pair(dim, r, g.Rank(c[0], c[1], c[2]))
			}
		}
	}
	return links
}

// tag is the message tag of a dim border payload moving toward dir: 2·dim
// for +dim, 2·dim+1 for -dim.
func tag(dim, dir int) int { return 2*dim + (1-dir)/2 }

// Run advances the simulation the given number of steps, spawning one
// goroutine per rank.
func (s *Sim) Run(steps int) {
	s.world.Run(func(c *mpi.Comm) {
		node, links := s.nodes[c.Rank()], s.links[c.Rank()]
		exchange := func(dim int) {
			for _, l := range links[dim] {
				c.Send(l.peer, tag(dim, l.dir), node.PackBorder(dim, l.dir))
				node.UnpackGhost(dim, l.dir, c.Recv(l.peer, tag(dim, -l.dir)))
			}
		}
		for st := 0; st < steps; st++ {
			node.Step(exchange)
		}
	})
	s.steps += steps
}

// Steps returns the number of completed steps.
func (s *Sim) Steps() int { return s.steps }

// Blocks returns the decomposition.
func (s *Sim) Blocks() []Block { return s.blocks }

// NodeBackend returns rank r's backend (for inspection in tests).
func (s *Sim) NodeBackend(r int) Node { return s.nodes[r] }

// GatherDensity assembles the global density field, x-fastest.
func (s *Sim) GatherDensity() []float32 {
	out := make([]float32, s.cfg.Global[0]*s.cfg.Global[1]*s.cfg.Global[2])
	for r, blk := range s.blocks {
		field := s.nodes[r].DensityField()
		s.scatterBlock(blk, func(gidx, lidx int) { out[gidx] = field[lidx] })
	}
	return out
}

// GatherVelocity assembles the global velocity field, x-fastest.
func (s *Sim) GatherVelocity() []vecmath.Vec3 {
	out := make([]vecmath.Vec3, s.cfg.Global[0]*s.cfg.Global[1]*s.cfg.Global[2])
	for r, blk := range s.blocks {
		field := s.nodes[r].VelocityField()
		s.scatterBlock(blk, func(gidx, lidx int) { out[gidx] = field[lidx] })
	}
	return out
}

func (s *Sim) scatterBlock(blk Block, set func(gidx, lidx int)) {
	gx, gy := s.cfg.Global[0], s.cfg.Global[1]
	l := 0
	for z := 0; z < blk.NZ; z++ {
		for y := 0; y < blk.NY; y++ {
			g := ((blk.Z0+z)*gy+(blk.Y0+y))*gx + blk.X0
			for x := 0; x < blk.NX; x++ {
				set(g+x, l)
				l++
			}
		}
	}
}

// TotalMass sums fluid mass over all blocks.
func (s *Sim) TotalMass() float64 {
	var m float64
	for _, n := range s.nodes {
		m += n.TotalMass()
	}
	return m
}

// MPIStats returns per-rank traffic statistics.
func (s *Sim) MPIStats() []mpi.RankStats { return s.world.Stats() }

// CPUNode is the reference backend: it computes its block with the
// serial CPU implementation of package lbm.
type CPUNode struct {
	L *lbm.Lattice
	// spare holds, per face, the payload last unpacked there: the buffer
	// the next PackBorder of that face fills and gives away.
	spare [lbm.NumFaces][]float32
}

// Step implements Node.
func (n *CPUNode) Step(exchange func(dim int)) { n.L.StepWithExchange(exchange) }

// PackBorder implements Node. The payload is the caller's.
func (n *CPUNode) PackBorder(dim, dir int) []float32 {
	face := 2*dim + (dir+1)/2
	out := n.spare[face]
	n.spare[face] = nil
	if len(out) != n.L.BorderLen(dim) {
		out = make([]float32, n.L.BorderLen(dim))
	}
	n.L.PackBorderInto(out, dim, dir)
	return out
}

// UnpackGhost implements Node. It takes data over from the caller.
func (n *CPUNode) UnpackGhost(dim, dir int, data []float32) {
	n.L.UnpackGhost(dim, dir, data)
	n.spare[2*dim+(dir+1)/2] = data
}

// DensityField implements Node.
func (n *CPUNode) DensityField() []float32 {
	out := make([]float32, n.L.Cells())
	var f [lbm.Q]float32
	i := 0
	for z := 0; z < n.L.NZ; z++ {
		for y := 0; y < n.L.NY; y++ {
			for x := 0; x < n.L.NX; x++ {
				n.L.Gather(&f, x, y, z)
				rho, _, _, _ := lbm.Moments(&f)
				out[i] = rho
				i++
			}
		}
	}
	return out
}

// VelocityField implements Node.
func (n *CPUNode) VelocityField() []vecmath.Vec3 {
	out := make([]vecmath.Vec3, n.L.Cells())
	i := 0
	for z := 0; z < n.L.NZ; z++ {
		for y := 0; y < n.L.NY; y++ {
			for x := 0; x < n.L.NX; x++ {
				out[i] = n.L.Velocity(x, y, z)
				i++
			}
		}
	}
	return out
}

// TotalMass implements Node.
func (n *CPUNode) TotalMass() float64 { return n.L.TotalMass() }
