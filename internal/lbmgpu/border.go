package lbmgpu

import (
	"gpucluster/internal/gpu"
	"gpucluster/internal/lbm"
	"gpucluster/internal/vecmath"
)

// gatherProgram returns the program that gathers the five outgoing
// distributions of face f into the compact border texture: four packed
// into the upper half, the fifth alone in the lower half.
func (s *Simulator) gatherProgram(f int) gpu.FragmentProgram {
	dim, dir := faceDir(f)
	_, ph := s.planeDims(dim)
	plane := 1 // texture coordinate of the low border plane
	if dir > 0 {
		plane = s.extent(dim)
	}
	var src [5]struct {
		stack  int
		ch, to int // source channel, output channel
	}
	for k, i := range lbm.DirsInto(dim, dir) {
		src[k].stack, src[k].ch, src[k].to = distStack(i), distChan(i), k%4
	}
	return func(_ []gpu.Sampler, fy, x0 int, out []vecmath.Vec4) {
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
				v[d.to] = s.tex(d.stack, layer).Fetch(tx, ty)[d.ch]
			}
			out[fx-x0] = v
		}
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
	f := faceOf(dim, dir)
	s.run(s.plan.pack[f])
	raw := s.scratch

	out := s.spare[f]
	s.spare[f] = nil
	if len(out) != 5*pw*ph {
		out = make([]float32, 5*pw*ph)
	}
	// Reorder into the canonical payload: plane cells (b outer, a inner)
	// with the 5 distributions consecutive.
	for b := 0; b < ph; b++ {
		for a := 0; a < pw; a++ {
			cell := out[5*(b*pw+a):][:5]
			copy(cell, raw[4*(b*pw+a):][:4])
			cell[4] = raw[4*((b+ph)*pw+a)]
		}
	}
	return out
}

// UnpackGhost writes a received payload into the ghost plane of the
// dim/dir face with sub-image uploads over the fast downstream bus
// direction, one rectangle per receiving distribution stack and layer.
// It takes data over from the caller.
func (s *Simulator) UnpackGhost(dim, dir int, data []float32) {
	pw, ph := s.planeDims(dim)
	if len(data) != 5*pw*ph {
		panic("lbmgpu: ghost payload length mismatch")
	}
	f := faceOf(dim, dir)
	s.spare[f] = data
	s.run(s.plan.unpack[f])
}

// interiorTexels downloads stack i layer by layer and returns its
// interior texels, x fastest, then y, then z.
func (s *Simulator) interiorTexels(i int) []vecmath.Vec4 {
	out := make([]vecmath.Vec4, 0, s.nx*s.ny*s.nz)
	for z := 1; z <= s.nz; z++ {
		raw, err := s.dev.Download(s.tex(i, z), nil)
		must(err)
		for y := 1; y <= s.ny; y++ {
			for x := 1; x <= s.nx; x++ {
				out = append(out, vecmath.Vec4(raw[4*(y*s.w+x):][:4]))
			}
		}
	}
	return out
}

// DensityField downloads the macro stack and returns interior densities.
func (s *Simulator) DensityField() []float32 {
	m := s.interiorTexels(macroStack)
	out := make([]float32, len(m))
	for i, v := range m {
		out[i] = v[0]
	}
	return out
}

// VelocityField downloads the macro stack and returns interior velocities.
func (s *Simulator) VelocityField() []vecmath.Vec3 {
	m := s.interiorTexels(macroStack)
	out := make([]vecmath.Vec3, len(m))
	for i, v := range m {
		out[i] = vecmath.Vec3{v[1], v[2], v[3]}
	}
	return out
}

// TotalMass sums interior fluid density from the macro stack.
func (s *Simulator) TotalMass() float64 {
	var sum float64
	solid := s.interiorTexels(solidStack)
	for i, v := range s.interiorTexels(macroStack) {
		if solid[i][0] > 0.5 {
			continue
		}
		sum += float64(v[0])
	}
	return sum
}
