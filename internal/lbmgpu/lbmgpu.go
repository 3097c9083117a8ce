// Package lbmgpu maps the D3Q19 BGK LBM onto the simulated GPU exactly as
// Section 4.2 of the paper describes:
//
//   - the 19 velocity distributions are packed four-per-texel into 5
//     stacks of 2D RGBA float textures (Figure 5), plus one stack holding
//     flow density and velocity and one holding boundary information:
//     r the solid flag, gba a solid cell's wall velocity, or on a fluid
//     cell (near, 0, 0), near set when one of the cell's link sources is
//     solid, so that only those cells test their sources for bounce-back;
//   - each computation step is a set of fragment programs executed as
//     render passes: small viewport rectangles refresh the boundary
//     ghost regions (an outflow face's first stage its source cells'
//     moments, as the sweep does a slice's, so that each of its five
//     stack passes fetches only its own texel), then the volume is swept
//     slice by slice. A slice takes six passes, each computing only what
//     it outputs: the macro pass runs first (stream 19 links, reduce to
//     density and velocity) and is copied into a one-layer staging
//     texture; the five distribution passes then fetch (rho, u) from it,
//     stream only their own four links and evaluate only those
//     equilibrium entries. The pixel-buffer results are copied back into
//     the textures, the density-and-velocity layer last: until then it
//     holds the previous step's density, which the moving-wall
//     bounce-back term reads;
//   - the state held between steps is the post-collision distribution
//     field, so the texture contents are exactly the payload of the
//     cluster border exchange;
//   - border data leaving the sub-domain are first gathered into a single
//     compact texture by a gather pass and then read back with one
//     download across the slow AGP upstream path (Section 4.3's read
//     minimization); incoming ghost data are scattered back with cheap
//     downstream sub-image uploads.
//
// Memory frugality mirrors the paper's 86 MB budget: rather than double
// buffering the whole lattice, the sweep keeps a two-slice ring buffer of
// pre-update layers, so the five distribution stacks exist only once.
//
// Each program is called once per viewport row; a sweep pass resolves
// its links' source rows once a row, and only bounce-back is a call. The
// programs reduce with lbm.Moments and evaluate equilibrium entries with
// the expression shape and operation order of lbm.Feq, so a GPU-backed
// node produces bit-identical results — which the tests assert against
// the CPU lattice, the only oracle.
//
// The step is one op list, a Plan, built in New from the sub-domain's
// extents and face kinds alone: each pass with its viewport and render
// target, each copy, each border read-back and ghost upload. New binds
// the passes' programs once; Step, PackBorder and UnpackGhost run their
// spans of the list through one loop and allocate nothing in the steady
// state, and Plan.Cost prices the same list without a device.
package lbmgpu

import (
	"errors"
	"fmt"

	"gpucluster/internal/gpu"
	"gpucluster/internal/lbm"
	"gpucluster/internal/vecmath"
)

// Simulator advances one sub-domain of the decomposed LBM lattice on a
// simulated GPU. It implements cluster.Node.
type Simulator struct {
	dev *gpu.Device
	extents

	// Every texture, numbered as plan's ops name them: the five
	// distribution stacks (4 per texel), the macro stack (rho, ux, uy,
	// uz of the streamed state), the solid stack (r: solid flag, gba:
	// wall velocity, or a fluid cell's near flag and two zeros), the
	// pre-update slice ring, the stage (rho, u of the slice being swept,
	// or of an outflow face's source cells during its fill) and the
	// compact border gather targets.
	texs  []*gpu.Texture2D
	pbufs [9]*gpu.PBuffer // per-stack render targets, macro, per-dim border

	plan *Plan // bound to the programs by New
	// The host side of every border transfer: PackBorder's read-back
	// and UnpackGhost's rect uploads, which never overlap.
	scratch []float32
	// Per face, the payload last unpacked there: the buffer the next
	// PackBorder of that face fills and gives away (the one-owner rule of
	// package cluster).
	spare [lbm.NumFaces][]float32
}

// New builds a GPU simulator from a configured host lattice (size, tau,
// faces, force, solids, wall velocities, and initial distributions are
// taken from it; the lattice is not referenced afterwards). The lattice
// must use the BGK operator (Collision == nil) and may not use a per-cell
// force field.
func New(dev *gpu.Device, cfg *lbm.Lattice) (*Simulator, error) {
	if cfg.Collision != nil {
		return nil, errors.New("lbmgpu: only the BGK operator is supported on the GPU")
	}
	if cfg.ForceField != nil {
		return nil, errors.New("lbmgpu: per-cell force fields are not supported on the GPU")
	}
	if cfg.HasCurvedBoundaries() {
		return nil, errors.New("lbmgpu: interpolated (curved) boundary links are CPU-only")
	}
	p := NewPlan([3]int{cfg.NX, cfg.NY, cfg.NZ}, cfg.Faces)
	s := &Simulator{dev: dev, extents: p.extents, plan: p}
	if err := s.allocate(); err != nil {
		s.free()
		return nil, err
	}
	if err := s.uploadInitialState(cfg); err != nil {
		s.free()
		return nil, err
	}
	s.bind(1/cfg.Tau, cfg.Force)
	n := s.w * s.h * 4 // a whole layer, the largest rect UnpackGhost uploads
	for dim := 0; dim < 3; dim++ {
		n = max(n, s.borderRect(dim).Fragments()*4)
	}
	s.scratch = make([]float32, n)
	return s, nil
}

// allocate reserves every texture and pixel buffer of the simulator.
func (s *Simulator) allocate() error {
	var err error
	s.texs = make([]*gpu.Texture2D, s.border(2)+1)
	for i := range s.texs {
		r := s.whole()
		if b := i - int(s.border(0)); b >= 0 {
			r = s.borderRect(b)
		}
		if s.texs[i], err = s.dev.NewTexture2D(fmt.Sprintf("tex%d", i), r.X1, r.Y1); err != nil {
			return err
		}
	}
	for i := range s.pbufs {
		r := s.whole()
		if i >= pbBorder {
			r = s.borderRect(i - pbBorder)
		}
		if s.pbufs[i], err = s.dev.NewPBuffer(fmt.Sprintf("pb%d", i), r.X1, r.Y1); err != nil {
			return err
		}
	}
	return nil
}

// free releases whatever allocate got as far as reserving.
func (s *Simulator) free() {
	for _, t := range s.texs {
		t.Free()
	}
	for _, pb := range s.pbufs {
		pb.Free()
	}
}

// tex returns layer z of stack i.
func (s *Simulator) tex(i, z int) *gpu.Texture2D { return s.texs[s.layer(i, z)] }

// Device returns the simulator's GPU (for stats inspection).
func (s *Simulator) Device() *gpu.Device { return s.dev }

// distStack and distChan locate distribution i in the packed layout.
func distStack(i int) int { return i / 4 }
func distChan(i int) int  { return i % 4 }

// uploadInitialState transfers the host lattice's post-collision state,
// solid flags and wall velocities, and initial macroscopic moments
// (computed with the CPU reference's float path) to the GPU, layer by
// layer. A fluid cell's gba channels of the solid stack carry
// (near, 0, 0) instead of a wall velocity, which only a solid link
// source is read for.
func (s *Simulator) uploadInitialState(l *lbm.Lattice) error {
	// Every texel's solid flag after the fill, layer-major: the r
	// channel of the solid stack, and what the near flags are read from.
	flags := make([]bool, s.w*s.h*s.d)
	for i := range flags {
		flags[i] = solidAfterFill(l, i%s.w-1, i/s.w%s.h-1, i/(s.w*s.h)-1)
	}
	var rows [7][]float32 // one layer of each stack
	for i := range rows {
		rows[i] = make([]float32, s.w*s.h*4)
	}
	var f [lbm.Q]float32
	for z := 0; z < s.d; z++ {
		for ty := 0; ty < s.h; ty++ {
			for tx := 0; tx < s.w; tx++ {
				k, c := 4*(ty*s.w+tx), l.Idx(tx-1, ty-1, z-1)
				for i := range f {
					rows[distStack(i)][k+distChan(i)] = l.Post[i][c]
					f[i] = l.F[i][c]
				}
				m := rows[macroStack][k : k+4]
				m[0], m[1], m[2], m[3] = lbm.Moments(&f)
				var solid vecmath.Vec4
				switch {
				case flags[(z*s.h+ty)*s.w+tx]:
					solid[0] = 1
					if l.WallU != nil {
						copy(solid[1:], l.WallU[c][:])
					}
				case s.nearWall(flags, tx, ty, z):
					solid[1] = 1
				}
				copy(rows[solidStack][k:k+4], solid[:])
			}
		}
		for i, row := range rows {
			if err := s.dev.Upload(s.tex(i, z), row); err != nil {
				return err
			}
		}
	}
	return nil
}

// nearWall reports whether texel (tx, ty, z) is an interior cell one of
// whose link sources is solid, given every texel's solid flag: the cells
// whose sweep programs test their sources for bounce-back. Ghost texels
// are never swept and read false.
func (e extents) nearWall(flags []bool, tx, ty, z int) bool {
	if tx < 1 || tx > e.nx || ty < 1 || ty > e.ny || z < 1 || z > e.nz {
		return false
	}
	for i := range links {
		lk := &links[i]
		if flags[((z+lk.slot-1)*e.h+ty+lk.dy)*e.w+tx+lk.dx] {
			return true
		}
	}
	return false
}

// solidAfterFill is cell (x, y, z)'s solid flag once the CPU lattice's
// ghost fill has run: a periodic face's ghost mirrors the far side, traced
// back through z, y, x (x planes span the interior, y planes the x ghosts
// too, z planes both) up to the first ghost coordinate of another face.
func solidAfterFill(l *lbm.Lattice, x, y, z int) bool {
	c, n := [3]int{x, y, z}, [3]int{l.NX, l.NY, l.NZ}
	for d := 2; d >= 0; d-- {
		if c[d] < 0 || c[d] >= n[d] {
			if l.Faces[faceOf(d, min(c[d], 1))].Type != lbm.Periodic {
				break
			}
			c[d] = (c[d] + n[d]) % n[d]
		}
	}
	return l.Solid[l.Idx(c[0], c[1], c[2])]
}
