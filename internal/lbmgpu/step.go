package lbmgpu

import (
	"fmt"

	"gpucluster/internal/gpu"
	"gpucluster/internal/lbm"
	"gpucluster/internal/vecmath"
)

// Step advances the block one time step on the GPU. For each dimension
// the boundary-condition ghost rectangles are refreshed by small render
// passes and the cluster exchange callback runs; then the sweep streams
// and collides the volume slice by slice.
func (s *Simulator) Step(exchange func(dim int)) {
	for dim := 0; dim < 3; dim++ {
		s.fillGhostDim(dim)
		exchange(dim)
	}
	s.sweep()
}

// must panics on pass errors: these indicate programming bugs (malformed
// viewports), not runtime conditions.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("lbmgpu: %v", err))
	}
}

// link is one row of the streaming table: where distribution i of a cell
// streams from, where its bounce-back partner lives in the packed layout,
// and its lattice constants as floats.
type link struct {
	dx, dy     int     // source texel offset, -c_x and -c_y
	slot       int     // source layer: 0 below, 1 same slice, 2 above (1 - c_z)
	st, ch     int     // stack and channel of distribution i
	ost, och   int     // stack and channel of Opp[i]
	cx, cy, cz float32 // c_i
	w          float32 // W[i]
}

// links is the D3Q19 streaming table in the Figure 5 packing; stack st
// owns links[4*st : 4*st+4] (the fifth stack only three).
var links = func() (t [lbm.Q]link) {
	for i := range t {
		c, o := lbm.C[i], lbm.Opp[i]
		t[i] = link{
			dx: -c[0], dy: -c[1], slot: 1 - c[2],
			st: distStack(i), ch: distChan(i),
			ost: distStack(o), och: distChan(o),
			cx: float32(c[0]), cy: float32(c[1]), cz: float32(c[2]),
			w: lbm.W[i],
		}
	}
	return t
}()

// ownLinks returns the rows of the distributions packed into stack st.
func ownLinks(st int) []link {
	return links[4*st : min(4*st+4, lbm.Q)]
}

// equilibrium returns lbm.Feq's entry for lk, written with the same
// expression shape so that it rounds identically; base is 1 - 1.5 u.u.
func (lk *link) equilibrium(rho, ux, uy, uz, base float32) float32 {
	cu := lk.cx*ux + lk.cy*uy + lk.cz*uz
	return lk.w * rho * (base + 3*cu + 4.5*cu*cu)
}

// bcPass is one boundary-condition viewport rectangle: the pass and the
// texture layer its rectangle is copied back into.
type bcPass struct {
	pass gpu.Pass
	dst  *gpu.Texture2D
}

// fillGhostDim refreshes the two ghost planes of a dimension from the
// face boundary conditions, as viewport-rectangle passes (the paper's
// "multiple small rectangles" covering the boundary regions of each Z
// slice).
func (s *Simulator) fillGhostDim(dim int) {
	for i := range s.bc[dim] {
		p := &s.bc[dim][i]
		must(s.dev.Run(p.pass))
		must(s.dev.CopyRect(p.pass.Target, p.dst, p.pass.Viewport))
	}
}

// nearest returns the texel of r nearest to (x, y).
func nearest(r gpu.Rect, x, y int) (int, int) {
	return min(max(x, r.X0), r.X1-1), min(max(y, r.Y0), r.Y1-1)
}

// appendFacePasses appends the ghost-fill passes of one face of dimension
// dim (neg: the low side): per target layer, one pass for each of the
// five distribution stacks.
func (s *Simulator) appendFacePasses(passes []bcPass, spec lbm.FaceSpec, dim int, neg bool) []bcPass {
	switch spec.Type {
	case lbm.Ghost, lbm.Wall, lbm.MovingWall:
		return passes // exchanged externally / realized as solid ghosts
	}

	// Ghost texture coordinate along dim, plus the source coordinate:
	// the periodic image or the adjacent interior cell.
	extent := [3]int{s.nx, s.ny, s.nz}[dim]
	gcoord, wrapcoord, edgecoord := 0, extent, 1
	if !neg {
		gcoord, wrapcoord, edgecoord = extent+1, 1, extent
	}
	src := edgecoord
	if spec.Type == lbm.Periodic {
		src = wrapcoord
	}

	// A fragment reads the texel nearest to its own coordinates in the
	// source rectangle: the source plane for x and y faces, and
	// in-plane the whole layer, or for outflow faces the interior only,
	// mirroring the CPU reference (ghost-column cells hold only
	// entering distributions, which do not define moments).
	from := gpu.Rect{X0: 0, Y0: 0, X1: s.w, Y1: s.h}
	if spec.Type == lbm.Outflow {
		from = s.interior
	}

	// The pass geometry per dim: for x and y faces one thin rectangle
	// per interior slice; for z faces the whole ghost layer, read from
	// the source layer.
	first, last, srcShift := 1, s.nz, 0
	var vp gpu.Rect
	switch dim {
	case 0:
		from.X0, from.X1 = src, src+1
		vp = gpu.Rect{X0: gcoord, Y0: 1, X1: gcoord + 1, Y1: s.ny + 1}
	case 1:
		from.Y0, from.Y1 = src, src+1
		vp = gpu.Rect{X0: 0, Y0: gcoord, X1: s.w, Y1: gcoord + 1}
	default:
		first, last, srcShift = gcoord, gcoord, src-gcoord
		vp = gpu.Rect{X0: 0, Y0: 0, X1: s.w, Y1: s.h}
	}

	rhoOut := spec.Rho
	if rhoOut == 0 {
		rhoOut = 1
	}
	var feqIn [lbm.Q]float32
	if spec.Type == lbm.Inlet {
		lbm.Feq(&feqIn, rhoOut, spec.U[0], spec.U[1], spec.U[2])
	}

	for layer := first; layer <= last; layer++ {
		var srcLayers [5]*gpu.Texture2D
		for st := range srcLayers {
			srcLayers[st] = s.stacks[st].Layer(layer + srcShift)
		}
		for st := 0; st < 5; st++ {
			passes = append(passes, bcPass{
				pass: gpu.Pass{
					Name:     "lbm-ghost-fill",
					Target:   s.pbufs[st],
					Viewport: vp,
					Program:  ghostProgram(spec.Type, st, srcLayers, from, feqIn, rhoOut),
				},
				dst: s.stacks[st].Layer(layer),
			})
		}
	}
	return passes
}

// ghostProgram returns the program that fills stack st's ghost texels of
// a face of the given type from the source layers.
func ghostProgram(face lbm.BC, st int, srcLayers [5]*gpu.Texture2D, from gpu.Rect, feqIn [lbm.Q]float32, rhoOut float32) gpu.FragmentProgram {
	own := ownLinks(st)
	switch face {
	case lbm.Periodic:
		srcTex := srcLayers[st]
		return func(_ []gpu.Sampler, y, x0 int, out []vecmath.Vec4) {
			for k := range out {
				out[k] = srcTex.Fetch(nearest(from, x0+k, y))
			}
		}
	case lbm.Inlet:
		var v vecmath.Vec4
		copy(v[:len(own)], feqIn[4*st:])
		return func(_ []gpu.Sampler, _, _ int, out []vecmath.Vec4) {
			for k := range out {
				out[k] = v
			}
		}
	default: // lbm.Outflow
		// Read the adjacent interior cell's 19 distributions (five
		// texels) for its moments, then re-anchor this stack's own
		// channels at the outlet density (same float path as
		// lbm.fillFace).
		return func(_ []gpu.Sampler, y, x0 int, out []vecmath.Vec4) {
			for i := range out {
				sx, sy := nearest(from, x0+i, y)
				var fp [lbm.Q]float32
				for k, t := range srcLayers {
					texel := t.Fetch(sx, sy)
					copy(fp[4*k:], texel[:])
				}
				rhoSrc, ux, uy, uz := lbm.Moments(&fp)
				base := 1 - 1.5*(ux*ux+uy*uy+uz*uz)
				var v vecmath.Vec4
				for ch := range own {
					lk := &own[ch]
					feqSrc := lk.equilibrium(rhoSrc, ux, uy, uz, base)
					feqOut := lk.equilibrium(rhoOut, ux, uy, uz, base)
					v[ch] = fp[4*st+ch] - feqSrc + feqOut
				}
				out[i] = v
			}
		}
	}
}

// slicePasses are the six render passes of one interior slice.
type slicePasses struct {
	macro gpu.Pass    // 19 links -> rho, u
	dist  [5]gpu.Pass // own links -> post-collision distributions
}

// sliceTextures are the texture layers the programs of one slice read,
// with the collision parameters.
type sliceTextures struct {
	lay      [5][3]*gpu.Texture2D // distributions below (stashed), at, above
	solid    [3]*gpu.Texture2D    // solid flags and wall velocities, likewise
	oldMacro *gpu.Texture2D       // the previous step's rho, u of this slice
	stage    *gpu.Texture2D       // this step's, once the macro pass ran

	omega float32
	force vecmath.Vec3
}

// newSlicePasses builds the passes of slice z. The slice below has been
// overwritten by the time z is swept, so its stashed copy is bound.
func (s *Simulator) newSlicePasses(z int, omega float32, force vecmath.Vec3) slicePasses {
	b := &sliceTextures{oldMacro: s.macro.Layer(z), stage: s.stage, omega: omega, force: force}
	for st := range b.lay {
		b.lay[st][0] = s.stacks[st].Layer(0)
		if z > 1 {
			b.lay[st][0] = s.ring[st][(z-1)%2]
		}
		b.lay[st][1] = s.stacks[st].Layer(z)
		b.lay[st][2] = s.stacks[st].Layer(z + 1)
	}
	for slot := range b.solid {
		b.solid[slot] = s.solid.Layer(z - 1 + slot)
	}
	p := slicePasses{
		macro: gpu.Pass{Name: "lbm-macro", Target: s.pbufs[5], Viewport: s.interior, Program: b.macroProgram},
	}
	for st := range p.dist {
		p.dist[st] = gpu.Pass{Name: "lbm-collide", Target: s.pbufs[st], Viewport: s.interior, Program: distPass{b, st}.program}
	}
	return p
}

// srcRows are a link's source rows: solid flags and its stack's texels.
type srcRows struct{ solid, dist gpu.TexelRow }

// sourceRows resolves the source rows of each of lks for fragment row ty.
func (b *sliceTextures) sourceRows(rows []srcRows, lks []link, ty int) {
	for i := range lks {
		lk := &lks[i]
		rows[i] = srcRows{b.solid[lk.slot].Row(ty + lk.dy), b.lay[lk.st][lk.slot].Row(ty + lk.dy)}
	}
}

// bounced is link lk's streamed value at fragment (tx, ty) when its source
// texel s is solid: bounce-back in lbm.Stream's float path.
func (b *sliceTextures) bounced(lk *link, s vecmath.Vec4, tx, ty int) float32 {
	v := b.lay[lk.ost][1].Fetch(tx, ty)[lk.och]
	if uw := (vecmath.Vec3{s[1], s[2], s[3]}); uw != (vecmath.Vec3{}) {
		cu := lk.cx*uw[0] + lk.cy*uw[1] + lk.cz*uw[2]
		v += 6 * lk.w * b.oldMacro.Fetch(tx, ty)[0] * cu
	}
	return v
}

// macroProgram computes the moments of the streamed state (the CPU's
// Rho/u cache): the collision input of this step's distribution passes,
// the wall term's density next step, and the read-back fields.
func (b *sliceTextures) macroProgram(_ []gpu.Sampler, ty, x0 int, out []vecmath.Vec4) {
	var rows [lbm.Q]srcRows
	b.sourceRows(rows[:], links[:], ty)
	solid, old := b.solid[1].Row(ty), b.oldMacro.Row(ty)
	for k := range out {
		tx := x0 + k
		if solid.At(tx)[0] > 0.5 {
			out[k] = old.At(tx) // solid cells keep state
			continue
		}
		var f [lbm.Q]float32
		for i := range links {
			lk, sx := &links[i], tx+links[i].dx
			f[i] = rows[i].dist.At(sx)[lk.ch]
			if s := rows[i].solid.At(sx); s[0] > 0.5 {
				f[i] = b.bounced(lk, s, tx, ty)
			}
		}
		rho, ux, uy, uz := lbm.Moments(&f)
		out[k] = vecmath.Vec4{rho, ux, uy, uz}
	}
}

// distPass is stack st's stream-and-collide program: its own links,
// relaxed towards their equilibrium entries at the staged rho, u. It is a
// method value, not a closure: the compiler did not inline At calls into
// a closure whose builder it inlined.
type distPass struct {
	*sliceTextures
	st int
}

func (p distPass) program(_ []gpu.Sampler, ty, x0 int, out []vecmath.Vec4) {
	b, st, own := p.sliceTextures, p.st, ownLinks(p.st)
	hasForce := b.force != (vecmath.Vec3{})
	var rows [4]srcRows
	b.sourceRows(rows[:], own, ty)
	solid, cur, stage := b.solid[1].Row(ty), b.lay[st][1].Row(ty), b.stage.Row(ty)
	for k := range out {
		tx := x0 + k
		if solid.At(tx)[0] > 0.5 {
			out[k] = cur.At(tx) // solid cells keep state
			continue
		}
		m := stage.At(tx)
		rho, ux, uy, uz := m[0], m[1], m[2], m[3]
		base := 1 - 1.5*(ux*ux+uy*uy+uz*uz)
		var v vecmath.Vec4
		for ch := range own {
			lk, sx := &own[ch], tx+own[ch].dx
			f := rows[ch].dist.At(sx)[lk.ch]
			if s := rows[ch].solid.At(sx); s[0] > 0.5 {
				f = b.bounced(lk, s, tx, ty)
			}
			post := f - b.omega*(f-lk.equilibrium(rho, ux, uy, uz, base))
			if hasForce {
				ca := lk.cx*b.force[0] + lk.cy*b.force[1] + lk.cz*b.force[2]
				post += 3 * lk.w * rho * ca
			}
			v[ch] = post
		}
		out[k] = v
	}
}

// sweep streams and collides every interior slice, in increasing z, using
// the two-slice ring buffer to preserve pre-update values of the slice
// below.
func (s *Simulator) sweep() {
	for z := 1; z <= s.nz; z++ {
		b := &s.slices[z-1]
		must(s.dev.Run(b.macro))
		must(s.dev.CopyRect(s.pbufs[5], s.stage, s.interior))
		for st := range b.dist {
			must(s.dev.Run(b.dist[st]))
		}

		// Stash the pre-update slice, then commit the pass results.
		for st := 0; st < 5; st++ {
			must(s.dev.CopyTexture(s.stacks[st].Layer(z), s.ring[st][z%2]))
			must(s.dev.CopyRect(s.pbufs[st], s.stacks[st].Layer(z), s.interior))
		}
		must(s.dev.CopyRect(s.pbufs[5], s.macro.Layer(z), s.interior))
	}
}
