package lbmgpu

import (
	"slices"

	"gpucluster/internal/bus"
	"gpucluster/internal/gpu"
	"gpucluster/internal/lbm"
)

// Plan is one step of a sub-domain on the simulated GPU written down as
// data: every render pass with its viewport, every on-card copy and every
// bus transfer, in the order a step issues them. It depends on the
// sub-domain's extents and face kinds alone, so Cost prices it without a
// device; New binds it to its textures and programs, and Step, PackBorder
// and UnpackGhost execute their spans of it.
type Plan struct {
	extents
	faces [lbm.NumFaces]lbm.FaceSpec
	from  [lbm.NumFaces]gpu.Rect // per face, the rectangle its ghost fill reads
	ops   []op

	fill         [3]span            // ghost fills of each dimension
	sweep        span               // stream and collide, slice by slice
	pack, unpack [lbm.NumFaces]span // border gather and ghost write-back of each face
}

// span is the ops [lo, hi) of a Plan.
type span struct{ lo, hi int }

// extents are the interior cells and the texture dims including ghosts.
type extents struct{ nx, ny, nz, w, h, d int }

type opKind uint8

const (
	opPass     opKind = iota // a program over rect into pbuffer dst
	opCopy                   // pbuffer src's rect into texture dst
	opStash                  // texture src into texture dst, whole
	opDownload               // texture src to the host: one upstream transfer
	opUpload                 // payload into rect of texture dst: one downstream transfer
)

type progKind uint8

const (
	progGhost   progKind = iota // a face's ghost fill for stack st from source layer z
	progMoments                 // an outflow face's source moments from layer z
	progMacro                   // slice z's density and velocity
	progDist                    // slice z's stack st
	progGather                  // a face's outgoing distributions
)

// op is one device call. Textures and pbuffers are numbered (layer,
// ring, stage, border; the pb constants); rect is the viewport, or the
// rectangle copied or transferred, and is all that Cost reads. Its fields
// are kept small, 40 bytes: a rank keeps its ops, about 700 for a 16³
// sub-domain, as long as it lives.
type op struct {
	kind     opKind
	prog     progKind
	face, st int8
	chans    [4]int8 // upload: per channel, which of a cell's five floats it takes (-1: none, zero)
	src, dst int32
	z        int32 // a pass program's layer
	off      int32 // upload: where the layer's cells start in face's payload
	rect     box
	program  gpu.FragmentProgram // a pass's, bound by New
}

// box is a gpu.Rect in 16-bit coordinates.
type box [4]int16

func boxOf(r gpu.Rect) box { return box{int16(r.X0), int16(r.Y0), int16(r.X1), int16(r.Y1)} }
func (b box) Rect() gpu.Rect {
	return gpu.Rect{X0: int(b[0]), Y0: int(b[1]), X1: int(b[2]), Y1: int(b[3])}
}

// Stack numbers beside the five distribution stacks, and the pbuffers:
// one per distribution stack, the macro one, then one per border.
const (
	macroStack, solidStack = 5, 6
	pbMacro, pbBorder      = 5, 6
)

// Texture numbering: layer z of stack i is i·d + z, then the two-slice
// ring of each distribution stack, the stage and the three borders.
func (e extents) layer(i, z int) int32    { return int32(i*e.d + z) }
func (e extents) ring(st, slot int) int32 { return int32(7*e.d + 2*st + slot) }
func (e extents) stage() int32            { return int32(7*e.d + 10) }
func (e extents) border(dim int) int32    { return int32(7*e.d + 11 + dim) }
func (e extents) extent(dim int) int      { return [3]int{e.nx, e.ny, e.nz}[dim] }
func (e extents) whole() gpu.Rect         { return gpu.Rect{X1: e.w, Y1: e.h} }
func (e extents) interior() gpu.Rect      { return gpu.Rect{X0: 1, Y0: 1, X1: e.nx + 1, Y1: e.ny + 1} }
func (e extents) borderRect(dim int) gpu.Rect {
	pw, ph := e.planeDims(dim)
	return gpu.Rect{X1: pw, Y1: 2 * ph} // the fifth distribution below the packed four
}

// planeDims returns the border plane extents (a, b) for a dimension,
// matching lbm.Lattice.plane: x planes span the interior, y planes
// include the x ghosts, z planes include x and y ghosts.
func (e extents) planeDims(dim int) (w, h int) {
	switch dim {
	case 0:
		return e.ny, e.nz
	case 1:
		return e.nx + 2, e.nz
	default:
		return e.nx + 2, e.ny + 2
	}
}

// faceOf is the lbm face index of the dim/dir face (dir -1 low, +1
// high), and faceDir its inverse.
func faceOf(dim, dir int) int      { return 2*dim + (dir+1)/2 }
func faceDir(f int) (dim, dir int) { return f / 2, 2*(f%2) - 1 }

// NewPlan writes down the step of a sub-domain of extents sub whose faces
// are faces (a Ghost face is exchanged with a neighbour).
func NewPlan(sub [3]int, faces [lbm.NumFaces]lbm.FaceSpec) *Plan {
	nx, ny, nz := sub[0], sub[1], sub[2]
	p := &Plan{extents: extents{nx, ny, nz, nx + 2, ny + 2, nz + 2}, faces: faces}
	for dim := range p.fill {
		lo := len(p.ops)
		p.fillOps(faceOf(dim, -1))
		p.fillOps(faceOf(dim, +1))
		p.fill[dim] = span{lo, len(p.ops)}
	}
	lo, in := len(p.ops), boxOf(p.interior())
	for z := 1; z <= nz; z++ {
		// The macro pass first, staged for the five distribution
		// passes; then each pre-update layer goes to the ring and its
		// pass result into the stack, the macro layer last.
		p.add(op{kind: opPass, prog: progMacro, z: int32(z), dst: pbMacro, rect: in},
			op{kind: opCopy, src: pbMacro, dst: p.stage(), rect: in})
		for st := 0; st < 5; st++ {
			p.add(op{kind: opPass, prog: progDist, z: int32(z), st: int8(st), dst: int32(st), rect: in})
		}
		for st := 0; st < 5; st++ {
			p.add(op{kind: opStash, src: p.layer(st, z), dst: p.ring(st, z%2), rect: boxOf(p.whole())},
				op{kind: opCopy, src: int32(st), dst: p.layer(st, z), rect: in})
		}
		p.add(op{kind: opCopy, src: pbMacro, dst: p.layer(macroStack, z), rect: in})
	}
	p.sweep = span{lo, len(p.ops)}
	for f := range p.pack {
		dim, dir := faceDir(f)
		lo, r := len(p.ops), boxOf(p.borderRect(dim))
		pb := int32(pbBorder + dim)
		p.add(op{kind: opPass, prog: progGather, face: int8(f), dst: pb, rect: r},
			op{kind: opCopy, src: pb, dst: p.border(dim), rect: r},
			op{kind: opDownload, src: p.border(dim), rect: r})
		p.pack[f] = span{lo, len(p.ops)}
		lo = len(p.ops)
		p.unpackOps(dim, dir)
		p.unpack[f] = span{lo, len(p.ops)}
	}
	p.ops = slices.Clone(p.ops) // no spare capacity: a rank keeps its plan
	return p
}

func (p *Plan) add(ops ...op) { p.ops = append(p.ops, ops...) }

// fillOps appends the ghost-fill passes of face f, each with its copy
// back: the paper's "multiple small rectangles" covering the boundary
// regions, per target layer one pass for each of the five distribution
// stacks. An outflow face first stages its source cells' moments, as the
// sweep does its slice's: one pass into the macro pbuffer copied to the
// stage, which the sweep overwrites before it reads it.
func (p *Plan) fillOps(f int) {
	spec := p.faces[f]
	dim, dir := faceDir(f)
	switch spec.Type {
	case lbm.Ghost, lbm.Wall, lbm.MovingWall:
		return // exchanged externally / realized as solid ghosts
	}

	// Ghost texture coordinate along dim, plus the source coordinate:
	// the periodic image or the adjacent interior cell.
	extent := p.extent(dim)
	gcoord, wrapcoord, edgecoord := 0, extent, 1
	if dir > 0 {
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
	from := p.whole()
	if spec.Type == lbm.Outflow {
		from = p.interior()
	}

	// The pass geometry per dim: for x and y faces one thin rectangle
	// per interior slice; for z faces the whole ghost layer, read from
	// the source layer.
	first, last, srcShift := 1, p.nz, 0
	var vp gpu.Rect
	switch dim {
	case 0:
		from.X0, from.X1 = src, src+1
		vp = gpu.Rect{X0: gcoord, Y0: 1, X1: gcoord + 1, Y1: p.ny + 1}
	case 1:
		from.Y0, from.Y1 = src, src+1
		vp = gpu.Rect{X0: 0, Y0: gcoord, X1: p.w, Y1: gcoord + 1}
	default:
		first, last, srcShift = gcoord, gcoord, src-gcoord
		vp = p.whole()
	}
	p.from[f] = from
	for layer := first; layer <= last; layer++ {
		if spec.Type == lbm.Outflow {
			p.add(op{kind: opPass, prog: progMoments, face: int8(f), z: int32(layer + srcShift), dst: pbMacro, rect: boxOf(vp)},
				op{kind: opCopy, src: pbMacro, dst: p.stage(), rect: boxOf(vp)})
		}
		for st := 0; st < 5; st++ {
			p.add(op{kind: opPass, prog: progGhost, face: int8(f), st: int8(st), z: int32(layer + srcShift), dst: int32(st), rect: boxOf(vp)},
				op{kind: opCopy, src: int32(st), dst: p.layer(st, layer), rect: boxOf(vp)})
		}
	}
}

// unpackOps appends the ghost write-back of the dim/dir face: per target
// layer, one rectangle upload for each distribution stack that receives
// data. For x and y faces the rectangle is one thin row per interior
// slice, for z faces the whole ghost layer.
func (p *Plan) unpackOps(dim, dir int) {
	ghost := 0 // texture coordinate of the ghost plane along dim
	if dir > 0 {
		ghost = p.extent(dim) + 1
	}
	first, last := 1, p.nz
	var r gpu.Rect
	switch dim {
	case 0:
		r = gpu.Rect{X0: ghost, Y0: 1, X1: ghost + 1, Y1: p.ny + 1}
	case 1:
		r = gpu.Rect{X0: 0, Y0: ghost, X1: p.w, Y1: ghost + 1}
	default:
		r, first, last = p.whole(), ghost, ghost
	}
	dists := lbm.DirsInto(dim, -dir)
	for layer := first; layer <= last; layer++ {
		for st := 0; st < 5; st++ {
			o := op{kind: opUpload, face: int8(faceOf(dim, dir)), dst: p.layer(st, layer), rect: boxOf(r),
				off: int32(5 * r.Fragments() * (layer - first)), chans: [4]int8{-1, -1, -1, -1}}
			for k, i := range dists {
				if distStack(i) == st {
					o.chans[distChan(i)] = int8(k)
				}
			}
			if o.chans != [4]int8{-1, -1, -1, -1} {
				p.add(o)
			}
		}
	}
}

// StepCost is what one step does on a rank's device and on its bus,
// toward the host (Up) and toward the card (Down).
type StepCost struct {
	GPU      gpu.Stats
	Up, Down bus.Stats
}

// Cost prices one step without executing it: the ghost fills and the
// sweep, and the pack and the unpack of every Ghost face, each transfer
// timed as b times it. b itself is left unchanged.
func (p *Plan) Cost(b *bus.Bus) StepCost {
	priced := *b
	priced.Reset()
	var st gpu.Stats
	price := func(sp span) {
		for _, o := range p.ops[sp.lo:sp.hi] {
			n := int64(o.rect.Rect().Fragments())
			switch o.kind {
			case opPass:
				st.Passes++
				st.Fragments += n
			case opCopy, opStash:
				st.TextureCopies++
				st.CopiedTexels += n
			case opDownload:
				priced.Upload(n * gpu.TexelBytes)
			case opUpload:
				priced.Download(n * gpu.TexelBytes)
			}
		}
	}
	price(span{p.fill[0].lo, p.sweep.hi})
	for f, spec := range p.faces {
		if spec.Type == lbm.Ghost {
			price(p.pack[f])
			price(p.unpack[f])
		}
	}
	return StepCost{st, priced.Up, priced.Down}
}
