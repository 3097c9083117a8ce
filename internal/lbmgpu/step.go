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
	for dim, sp := range s.plan.fill {
		s.run(sp)
		exchange(dim)
	}
	s.run(s.plan.sweep)
}

// passNames label the passes by program, in progKind order.
var passNames = [...]string{"lbm-ghost-fill", "lbm-ghost-moments", "lbm-macro", "lbm-collide", "border-gather"}

// bind builds the program of every pass of the plan, once, so that
// running the plan allocates nothing.
func (s *Simulator) bind(omega float32, force vecmath.Vec3) {
	swept := make([]*sliceTextures, s.d)
	for i := range s.plan.ops {
		o := &s.plan.ops[i]
		switch {
		case o.kind != opPass:
		case o.prog == progGhost:
			o.program = ghostProgram(s.plan.faces[o.face], int(o.st), s.layers(int(o.z)), s.plan.from[o.face], s.texs[s.stage()])
		case o.prog == progMoments:
			o.program = outflowMoments(s.layers(int(o.z)), s.plan.from[o.face])
		case o.prog == progGather:
			o.program = s.gatherProgram(int(o.face))
		default:
			if swept[o.z] == nil {
				swept[o.z] = s.sliceTextures(int(o.z), omega, force)
			}
			o.program = swept[o.z].macroProgram
			if o.prog == progDist {
				o.program = distPass{swept[o.z], int(o.st)}.program
			}
		}
	}
}

// run executes the plan's ops of sp in order: the one loop that Step,
// PackBorder and UnpackGhost share. A download lands in the scratch; an
// upload takes its rectangle's cells from the payload its face last
// received.
func (s *Simulator) run(sp span) {
	for i := sp.lo; i < sp.hi; i++ {
		o := &s.plan.ops[i]
		r := o.rect.Rect()
		switch o.kind {
		case opPass:
			must(s.dev.Run(gpu.Pass{Name: passNames[o.prog], Target: s.pbufs[o.dst], Viewport: r, Program: o.program}))
		case opCopy:
			must(s.dev.CopyRect(s.pbufs[o.src], s.texs[o.dst], r))
		case opStash:
			must(s.dev.CopyTexture(s.texs[o.src], s.texs[o.dst]))
		case opDownload:
			_, err := s.dev.Download(s.texs[o.src], s.scratch)
			must(err)
		case opUpload:
			n := r.Fragments()
			buf, cells := s.scratch[:4*n], s.spare[o.face][o.off:][:5*n]
			for c := 0; c < n; c++ {
				for ch, k := range o.chans {
					v := float32(0)
					if k >= 0 {
						v = cells[5*c+int(k)]
					}
					buf[4*c+ch] = v
				}
			}
			must(s.dev.UploadRect(s.texs[o.dst], r, buf))
		}
	}
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

// nearest returns the texel of r nearest to (x, y).
func nearest(r gpu.Rect, x, y int) (int, int) {
	return min(max(x, r.X0), r.X1-1), min(max(y, r.Y0), r.Y1-1)
}

// layers returns layer z of each distribution stack.
func (s *Simulator) layers(z int) (t [5]*gpu.Texture2D) {
	for st := range t {
		t[st] = s.tex(st, z)
	}
	return t
}

// ghostProgram returns the program that fills stack st's ghost texels of
// a face from the source layers; an outflow face's reads its source
// cells' moments from the stage.
func ghostProgram(spec lbm.FaceSpec, st int, srcLayers [5]*gpu.Texture2D, from gpu.Rect, stage *gpu.Texture2D) gpu.FragmentProgram {
	own := ownLinks(st)
	srcTex := srcLayers[st]
	rhoOut := spec.Rho
	if rhoOut == 0 {
		rhoOut = 1
	}
	switch spec.Type {
	case lbm.Periodic:
		return func(_ []gpu.Sampler, y, x0 int, out []vecmath.Vec4) {
			for k := range out {
				out[k] = srcTex.Fetch(nearest(from, x0+k, y))
			}
		}
	case lbm.Inlet:
		var feqIn [lbm.Q]float32
		lbm.Feq(&feqIn, rhoOut, spec.U[0], spec.U[1], spec.U[2])
		var v vecmath.Vec4
		copy(v[:len(own)], feqIn[4*st:])
		return func(_ []gpu.Sampler, _, _ int, out []vecmath.Vec4) {
			for k := range out {
				out[k] = v
			}
		}
	default: // lbm.Outflow
		// Re-anchor the adjacent interior cell's own channels of this
		// stack at the outlet density, at the moments the face's
		// moments pass staged (same float path as lbm.fillFace).
		return func(_ []gpu.Sampler, y, x0 int, out []vecmath.Vec4) {
			staged := stage.Row(y)
			for i := range out {
				m, fp := staged.At(x0+i), srcTex.Fetch(nearest(from, x0+i, y))
				rhoSrc, ux, uy, uz := m[0], m[1], m[2], m[3]
				base := 1 - 1.5*(ux*ux+uy*uy+uz*uz)
				var v vecmath.Vec4
				for ch := range own {
					lk := &own[ch]
					feqSrc := lk.equilibrium(rhoSrc, ux, uy, uz, base)
					feqOut := lk.equilibrium(rhoOut, ux, uy, uz, base)
					v[ch] = fp[ch] - feqSrc + feqOut
				}
				out[i] = v
			}
		}
	}
}

// outflowMoments returns the program that computes, for each ghost texel
// of an outflow face, the moments of its source cell: the nearest texel of
// from in the source layers, all 19 distributions of it.
func outflowMoments(srcLayers [5]*gpu.Texture2D, from gpu.Rect) gpu.FragmentProgram {
	return func(_ []gpu.Sampler, y, x0 int, out []vecmath.Vec4) {
		for i := range out {
			sx, sy := nearest(from, x0+i, y)
			var fp [lbm.Q]float32
			for k, t := range srcLayers {
				texel := t.Fetch(sx, sy)
				copy(fp[4*k:], texel[:])
			}
			rho, ux, uy, uz := lbm.Moments(&fp)
			out[i] = vecmath.Vec4{rho, ux, uy, uz}
		}
	}
}

// sliceTextures are the texture layers the programs of one slice read,
// with the collision parameters.
type sliceTextures struct {
	lay      [5][3]*gpu.Texture2D // distributions below (stashed), at, above
	solid    [3]*gpu.Texture2D    // solid, wall velocity or near flags, likewise
	oldMacro *gpu.Texture2D       // the previous step's rho, u of this slice
	stage    *gpu.Texture2D       // this step's, once the macro pass ran

	omega float32
	force vecmath.Vec3
}

// sliceTextures binds the layers the programs of slice z read. The slice
// below has been overwritten by the time z is swept, so its stashed copy
// is bound.
func (s *Simulator) sliceTextures(z int, omega float32, force vecmath.Vec3) *sliceTextures {
	b := &sliceTextures{oldMacro: s.tex(macroStack, z), stage: s.texs[s.stage()], omega: omega, force: force}
	for st := range b.lay {
		b.lay[st][0] = s.tex(st, 0)
		if z > 1 {
			b.lay[st][0] = s.texs[s.ring(st, (z-1)%2)]
		}
		b.lay[st][1] = s.tex(st, z)
		b.lay[st][2] = s.tex(st, z+1)
	}
	for slot := range b.solid {
		b.solid[slot] = s.tex(solidStack, z-1+slot)
	}
	return b
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
// the wall term's density next step, and the read-back fields. A fluid
// cell tests its sources for bounce-back only when its near flag is set.
func (b *sliceTextures) macroProgram(_ []gpu.Sampler, ty, x0 int, out []vecmath.Vec4) {
	var rows [lbm.Q]srcRows
	b.sourceRows(rows[:], links[:], ty)
	solid, old := b.solid[1].Row(ty), b.oldMacro.Row(ty)
	for k := range out {
		tx := x0 + k
		if solid.Chan(tx, 0) > 0.5 {
			out[k] = old.At(tx) // solid cells keep state
			continue
		}
		near := solid.Chan(tx, 1) > 0.5
		var f [lbm.Q]float32
		for i := range links {
			lk, sx := &links[i], tx+links[i].dx
			f[i] = rows[i].dist.Chan(sx, lk.ch)
			if near && rows[i].solid.Chan(sx, 0) > 0.5 {
				f[i] = b.bounced(lk, rows[i].solid.At(sx), tx, ty)
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
		if solid.Chan(tx, 0) > 0.5 {
			out[k] = cur.At(tx) // solid cells keep state
			continue
		}
		near := solid.Chan(tx, 1) > 0.5
		m := stage.At(tx)
		rho, ux, uy, uz := m[0], m[1], m[2], m[3]
		base := 1 - 1.5*(ux*ux+uy*uy+uz*uz)
		// The fifth stack's unused channel is never written: it is zero
		// in every texel and pbuffer fragment from the upload on.
		o := &out[k]
		for ch := range own {
			lk, sx := &own[ch], tx+own[ch].dx
			f := rows[ch].dist.Chan(sx, lk.ch)
			if near && rows[ch].solid.Chan(sx, 0) > 0.5 {
				f = b.bounced(lk, rows[ch].solid.At(sx), tx, ty)
			}
			post := f - b.omega*(f-lk.equilibrium(rho, ux, uy, uz, base))
			if hasForce {
				ca := lk.cx*b.force[0] + lk.cy*b.force[1] + lk.cz*b.force[2]
				post += 3 * lk.w * rho * ca
			}
			o[ch] = post
		}
	}
}
