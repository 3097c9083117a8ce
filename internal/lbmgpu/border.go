package lbmgpu

import (
	"gpucluster/internal/gpu"
	"gpucluster/internal/lbm"
	"gpucluster/internal/vecmath"
)

// planeDims returns the border plane extents (a, b) for a dimension,
// matching lbm.Lattice.plane: x planes span the interior, y planes
// include the x ghosts, z planes include x and y ghosts.
func (s *Simulator) planeDims(dim int) (w, h int) {
	switch dim {
	case 0:
		return s.ny, s.nz
	case 1:
		return s.nx + 2, s.nz
	default:
		return s.nx + 2, s.ny + 2
	}
}

// sideOf maps a face direction (-1 low, +1 high) to its index in the
// per-(dim, side) tables.
func sideOf(dir int) int { return (dir + 1) / 2 }

// gatherPass builds the render pass that gathers the five outgoing
// distributions of the dim/dir face into the compact border texture:
// four packed into the upper half, the fifth alone in the lower half.
func (s *Simulator) gatherPass(dim, dir int) gpu.Pass {
	_, ph := s.planeDims(dim)
	plane := 1 // texture coordinate of the low border plane
	if dir > 0 {
		plane = [3]int{s.nx, s.ny, s.nz}[dim]
	}
	var src [5]struct {
		stack  *gpu.TextureStack
		ch, to int // source channel, output channel
	}
	for k, i := range lbm.DirsInto(dim, dir) {
		src[k].stack, src[k].ch, src[k].to = s.stacks[distStack(i)], distChan(i), k%4
	}
	return gpu.Pass{
		Name:   "border-gather",
		Target: s.borderPB[dim],
		Program: func(_ []gpu.Sampler, fy, x0 int, out []vecmath.Vec4) {
			group := src[:4]
			if fy >= ph {
				fy -= ph
				group = src[4:]
			}
			for fx := x0; fx < x0+len(out); fx++ {
				// Texture location of plane cell (fx, fy): the
				// containing layer and the in-layer coordinates.
				var layer, tx, ty int
				switch dim {
				case 0:
					layer, tx, ty = fy+1, plane, fx+1
				case 1:
					layer, tx, ty = fy+1, fx, plane
				default:
					layer, tx, ty = plane, fx, fy
				}
				var v vecmath.Vec4
				for _, d := range group {
					v[d.to] = d.stack.Layer(layer).Fetch(tx, ty)[d.ch]
				}
				out[fx-x0] = v
			}
		},
	}
}

// PackBorder gathers the five outgoing distributions of the dim/dir face
// into the compact border texture with a single render pass, reads the
// texture back in one bus transfer (the paper's single glGetTexImage)
// into the simulator's transfer scratch, and reorders the payload to the
// canonical wire format shared with the CPU backend. The payload is the
// caller's.
func (s *Simulator) PackBorder(dim, dir int) []float32 {
	pw, ph := s.planeDims(dim)
	bt := s.border[dim]
	side := sideOf(dir)
	must(s.dev.Run(s.packs[dim][side]))
	must(s.dev.CopyToTexture(s.borderPB[dim], bt))
	raw, err := s.dev.Download(bt, s.scratch)
	must(err)

	out := s.spare[dim][side]
	s.spare[dim][side] = nil
	if len(out) != 5*pw*ph {
		out = make([]float32, 5*pw*ph)
	}
	// Reorder into the canonical payload: plane cells (b outer, a inner)
	// with the 5 distributions consecutive.
	btw := bt.Width()
	for b := 0; b < ph; b++ {
		for a := 0; a < pw; a++ {
			cell := out[5*(b*pw+a):][:5]
			copy(cell, raw[4*(b*btw+a):][:4])
			cell[4] = raw[4*((b+ph)*btw+a)]
		}
	}
	return out
}

// unpackTable is the scatter layout of one ghost face: the rectangle
// uploaded per layer and, per distribution stack that receives data,
// which payload element lands in which channel.
type unpackTable struct {
	// For x and y faces one thin rectangle (one payload row) per
	// interior slice, for z faces the whole ghost layer (every row).
	rect        gpu.Rect
	first, last int // target layers
	cells       int // plane cells per layer
	groups      []unpackGroup
}

// unpackGroup is one stack's share of a ghost texel.
type unpackGroup struct {
	stack *gpu.TextureStack
	// from[ch] is the position among a cell's five payload floats of
	// the value for channel ch, or -1 for a channel that receives none
	// and is zeroed.
	from [4]int
}

// unpackTable builds the scatter layout for the dim/dir face, groups in
// stack order.
func (s *Simulator) unpackTable(dim, dir int) unpackTable {
	ghost := 0 // texture coordinate of the ghost plane along dim
	if dir > 0 {
		ghost = [3]int{s.nx, s.ny, s.nz}[dim] + 1
	}
	pw, ph := s.planeDims(dim)
	t := unpackTable{first: 1, last: s.nz, cells: pw}
	switch dim {
	case 0:
		t.rect = gpu.Rect{X0: ghost, Y0: 1, X1: ghost + 1, Y1: s.ny + 1}
	case 1:
		t.rect = gpu.Rect{X0: 0, Y0: ghost, X1: s.w, Y1: ghost + 1}
	default:
		t.rect = gpu.Rect{X0: 0, Y0: 0, X1: s.w, Y1: s.h}
		t.first, t.last, t.cells = ghost, ghost, pw*ph
	}
	dists := lbm.DirsInto(dim, -dir)
	for st, stack := range s.stacks {
		g := unpackGroup{stack: stack, from: [4]int{-1, -1, -1, -1}}
		used := false
		for k, i := range dists {
			if distStack(i) == st {
				g.from[distChan(i)] = k
				used = true
			}
		}
		if used {
			t.groups = append(t.groups, g)
		}
	}
	return t
}

// UnpackGhost scatters a received payload into the ghost plane of the
// dim/dir face using sub-image uploads over the fast downstream bus
// direction, one rectangle per distribution stack and slice. It takes
// data over from the caller.
func (s *Simulator) UnpackGhost(dim, dir int, data []float32) {
	pw, ph := s.planeDims(dim)
	if len(data) != 5*pw*ph {
		panic("lbmgpu: ghost payload length mismatch")
	}
	side := sideOf(dir)
	s.spare[dim][side] = data
	t := &s.unpacks[dim][side]
	buf := s.scratch[:4*t.cells]
	for layer := t.first; layer <= t.last; layer++ {
		cells := data[:5*t.cells]
		data = data[len(cells):]
		for gi := range t.groups {
			g := &t.groups[gi]
			for c := 0; c < t.cells; c++ {
				for ch, k := range g.from {
					v := float32(0)
					if k >= 0 {
						v = cells[5*c+k]
					}
					buf[4*c+ch] = v
				}
			}
			must(s.dev.UploadRect(g.stack.Layer(layer), t.rect, buf))
		}
	}
}

// DensityField downloads the macro stack and returns interior densities.
func (s *Simulator) DensityField() []float32 {
	out := make([]float32, s.nx*s.ny*s.nz)
	i := 0
	for z := 1; z <= s.nz; z++ {
		raw, err := s.dev.Download(s.macro.Layer(z), nil)
		must(err)
		for y := 1; y <= s.ny; y++ {
			for x := 1; x <= s.nx; x++ {
				out[i] = raw[4*(y*s.w+x)]
				i++
			}
		}
	}
	return out
}

// VelocityField downloads the macro stack and returns interior velocities.
func (s *Simulator) VelocityField() []vecmath.Vec3 {
	out := make([]vecmath.Vec3, s.nx*s.ny*s.nz)
	i := 0
	for z := 1; z <= s.nz; z++ {
		raw, err := s.dev.Download(s.macro.Layer(z), nil)
		must(err)
		for y := 1; y <= s.ny; y++ {
			for x := 1; x <= s.nx; x++ {
				base := 4 * (y*s.w + x)
				out[i] = vecmath.Vec3{raw[base+1], raw[base+2], raw[base+3]}
				i++
			}
		}
	}
	return out
}

// TotalMass sums interior fluid density from the macro stack.
func (s *Simulator) TotalMass() float64 {
	var sum float64
	for z := 1; z <= s.nz; z++ {
		raw, err := s.dev.Download(s.macro.Layer(z), nil)
		must(err)
		solidRaw, err := s.dev.Download(s.solid.Layer(z), nil)
		must(err)
		for y := 1; y <= s.ny; y++ {
			for x := 1; x <= s.nx; x++ {
				base := 4 * (y*s.w + x)
				if solidRaw[base] > 0.5 {
					continue
				}
				sum += float64(raw[base])
			}
		}
	}
	return sum
}
