// Package lbmgpu maps the D3Q19 BGK LBM onto the simulated GPU exactly as
// Section 4.2 of the paper describes:
//
//   - the 19 velocity distributions are packed four-per-texel into 5
//     stacks of 2D RGBA float textures (Figure 5), plus one stack holding
//     flow density and velocity and one holding boundary information
//     (solid flags and wall velocities);
//   - each computation step is a set of fragment programs executed as
//     render passes: small viewport rectangles refresh the boundary
//     ghost regions, then the volume is swept slice by slice. A slice
//     takes six passes, each computing only what it outputs: the macro
//     pass runs first (stream 19 links, reduce to density and velocity)
//     and is copied into a one-layer staging texture; the five
//     distribution passes then fetch (rho, u) from it, stream only their
//     own four links and evaluate only those equilibrium entries. The
//     pixel-buffer results are copied back into the textures, the
//     density-and-velocity layer last: until then it holds the previous
//     step's density, which the moving-wall bounce-back term reads;
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
// Every pass descriptor (program, viewport, render target) and the
// border pack/unpack tables are built once in New, so the render path of
// a steady-state Step allocates nothing.
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

	nx, ny, nz int // interior cells
	w, h, d    int // texture dims including ghosts

	stacks [5]*gpu.TextureStack // distributions, 4 per texel
	macro  *gpu.TextureStack    // rho, ux, uy, uz of the streamed state
	solid  *gpu.TextureStack    // r: solid flag, gba: wall velocity
	ring   [5][2]*gpu.Texture2D // pre-update slice stash
	stage  *gpu.Texture2D       // rho, ux, uy, uz of the slice being swept
	pbufs  [6]*gpu.PBuffer      // per-stack render targets + macro

	border   [3]*gpu.Texture2D // per-dim compact border gather targets
	borderPB [3]*gpu.PBuffer   // render targets matching the border textures

	// Built once by New from the host lattice's faces, force and tau.
	interior gpu.Rect          // the sweep viewport: every non-ghost texel
	bc       [3][]bcPass       // boundary-condition ghost fills per dimension
	slices   []slicePasses     // the six sweep passes of each interior slice
	packs    [3][2]gpu.Pass    // border gather pass per (dim, dir)
	unpacks  [3][2]unpackTable // ghost scatter layout per (dim, dir)
	// The host side of every border transfer: PackBorder's read-back
	// and UnpackGhost's rect uploads, which never overlap.
	scratch []float32
	// Per (dim, dir), the payload last unpacked there: the buffer the next
	// PackBorder of that face fills and gives away (the one-owner rule of
	// package cluster).
	spare [3][2][]float32
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
	s := &Simulator{
		dev: dev,
		nx:  cfg.NX, ny: cfg.NY, nz: cfg.NZ,
		w: cfg.NX + 2, h: cfg.NY + 2, d: cfg.NZ + 2,
	}
	s.interior = gpu.Rect{X0: 1, Y0: 1, X1: s.nx + 1, Y1: s.ny + 1}
	if err := s.allocate(); err != nil {
		s.free()
		return nil, err
	}
	if err := s.uploadInitialState(cfg); err != nil {
		s.free()
		return nil, err
	}
	for dim := 0; dim < 3; dim++ {
		for _, dir := range []int{-1, +1} {
			side := sideOf(dir)
			s.bc[dim] = s.appendFacePasses(s.bc[dim], cfg.Faces[2*dim+side], dim, dir < 0)
			s.packs[dim][side] = s.gatherPass(dim, dir)
			s.unpacks[dim][side] = s.unpackTable(dim, dir)
		}
	}
	s.slices = make([]slicePasses, s.nz)
	for z := 1; z <= s.nz; z++ {
		s.slices[z-1] = s.newSlicePasses(z, 1/cfg.Tau, cfg.Force)
	}
	n := s.w * s.h * 4 // a whole layer, the largest rect UnpackGhost uploads
	for _, bt := range s.border {
		n = max(n, bt.Width()*bt.Height()*4)
	}
	s.scratch = make([]float32, n)
	return s, nil
}

// allocate reserves every texture and pixel buffer of the simulator.
func (s *Simulator) allocate() error {
	var err error
	for i := range s.stacks {
		if s.stacks[i], err = s.dev.NewStack(fmt.Sprintf("f%d", i), s.w, s.h, s.d); err != nil {
			return err
		}
	}
	if s.macro, err = s.dev.NewStack("macro", s.w, s.h, s.d); err != nil {
		return err
	}
	if s.solid, err = s.dev.NewStack("solid", s.w, s.h, s.d); err != nil {
		return err
	}
	for i := range s.ring {
		for j := range s.ring[i] {
			if s.ring[i][j], err = s.dev.NewTexture2D(fmt.Sprintf("ring%d_%d", i, j), s.w, s.h); err != nil {
				return err
			}
		}
	}
	if s.stage, err = s.dev.NewTexture2D("stage", s.w, s.h); err != nil {
		return err
	}
	for i := range s.pbufs {
		if s.pbufs[i], err = s.dev.NewPBuffer(fmt.Sprintf("pb%d", i), s.w, s.h); err != nil {
			return err
		}
	}
	// Compact border textures: height doubled to hold the fifth
	// distribution below the packed four (one texture, one read-back).
	for dim := range s.border {
		pw, ph := s.planeDims(dim)
		if s.border[dim], err = s.dev.NewTexture2D(fmt.Sprintf("border%d", dim), pw, 2*ph); err != nil {
			return err
		}
		if s.borderPB[dim], err = s.dev.NewPBuffer(fmt.Sprintf("borderpb%d", dim), pw, 2*ph); err != nil {
			return err
		}
	}
	return nil
}

// free releases whatever allocate got as far as reserving.
func (s *Simulator) free() {
	for _, st := range s.stacks {
		if st != nil {
			st.Free()
		}
	}
	if s.macro != nil {
		s.macro.Free()
	}
	if s.solid != nil {
		s.solid.Free()
	}
	for i := range s.ring {
		for _, t := range s.ring[i] {
			t.Free()
		}
	}
	s.stage.Free()
	for _, pb := range s.pbufs {
		pb.Free()
	}
	for _, t := range s.border {
		t.Free()
	}
	for _, pb := range s.borderPB {
		pb.Free()
	}
}

// Device returns the simulator's GPU (for stats inspection).
func (s *Simulator) Device() *gpu.Device { return s.dev }

// distStack and distChan locate distribution i in the packed layout.
func distStack(i int) int { return i / 4 }
func distChan(i int) int  { return i % 4 }

// uploadInitialState transfers the host lattice's post-collision state,
// solid/wall data and initial macroscopic moments to the GPU.
func (s *Simulator) uploadInitialState(l *lbm.Lattice) error {
	row := make([]float32, s.w*s.h*4)
	for st := 0; st < 5; st++ {
		for z := 0; z < s.d; z++ {
			k := 0
			for ty := 0; ty < s.h; ty++ {
				for tx := 0; tx < s.w; tx++ {
					c := l.Idx(tx-1, ty-1, z-1)
					for ch := 0; ch < 4; ch++ {
						i := st*4 + ch
						if i < lbm.Q {
							row[k] = l.Post[i][c]
						} else {
							row[k] = 0
						}
						k++
					}
				}
			}
			if err := s.dev.Upload(s.stacks[st].Layer(z), row); err != nil {
				return err
			}
		}
	}
	// Solid flags and wall velocities.
	for z := 0; z < s.d; z++ {
		k := 0
		for ty := 0; ty < s.h; ty++ {
			for tx := 0; tx < s.w; tx++ {
				c := l.Idx(tx-1, ty-1, z-1)
				if solidAfterFill(l, tx-1, ty-1, z-1) {
					row[k] = 1
				} else {
					row[k] = 0
				}
				var uw vecmath.Vec3
				if l.WallU != nil {
					uw = l.WallU[c]
				}
				row[k+1], row[k+2], row[k+3] = uw[0], uw[1], uw[2]
				k += 4
			}
		}
		if err := s.dev.Upload(s.solid.Layer(z), row); err != nil {
			return err
		}
	}
	// Macroscopic moments of the initial state, computed with the same
	// float path as the CPU reference.
	var f [lbm.Q]float32
	for z := 0; z < s.d; z++ {
		k := 0
		for ty := 0; ty < s.h; ty++ {
			for tx := 0; tx < s.w; tx++ {
				c := l.Idx(tx-1, ty-1, z-1)
				for i := 0; i < lbm.Q; i++ {
					f[i] = l.F[i][c]
				}
				rho, ux, uy, uz := lbm.Moments(&f)
				row[k], row[k+1], row[k+2], row[k+3] = rho, ux, uy, uz
				k += 4
			}
		}
		if err := s.dev.Upload(s.macro.Layer(z), row); err != nil {
			return err
		}
	}
	return nil
}

// solidAfterFill is cell (x, y, z)'s solid flag once the CPU lattice's
// ghost fill has run: a periodic face's ghost mirrors the far side, traced
// back through z, y, x (x planes span the interior, y planes the x ghosts
// too, z planes both) up to the first ghost coordinate of another face.
func solidAfterFill(l *lbm.Lattice, x, y, z int) bool {
	c, n := [3]int{x, y, z}, [3]int{l.NX, l.NY, l.NZ}
	for d := 2; d >= 0; d-- {
		if c[d] < 0 || c[d] >= n[d] {
			if l.Faces[2*d+sideOf(min(c[d], 1))].Type != lbm.Periodic {
				break
			}
			c[d] = (c[d] + n[d]) % n[d]
		}
	}
	return l.Solid[l.Idx(c[0], c[1], c[2])]
}
