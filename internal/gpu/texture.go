// Package gpu is a software model of a 2003-era programmable graphics
// processor (the paper's nVIDIA GeForce FX 5800 Ultra) sufficient for
// general-purpose computation as described in Section 2 of the paper:
//
//   - data live in 2D RGBA float textures (and stacks of them for volumes);
//   - computation steps are fragment programs executed over a viewport
//     rectangle by a render pass; fragment programs may gather (fetch any
//     texel of any bound texture) but can only write the single output
//     fragment they are invoked for — there is no scatter;
//   - pass results land in a pixel buffer (pbuffer) and must be copied back
//     into a texture before they can be fetched by a later pass;
//   - texture memory is a hard, small budget (128 MB on the FX 5800 Ultra,
//     of which only ~86 MB was usable for lattice data);
//   - transfers between host and device cross an explicit bus model with
//     asymmetric bandwidth (see package bus).
//
// The model enforces the programming-model constraints through the API:
// a program reads only Samplers and texel rows and writes one viewport
// row's span of the render target. Rows are shaded concurrently by a worker
// pool (Config.Workers), which is both faithful (the FX 5800 Ultra ran 8
// reduced-rate fragment pipes in parallel, its successor 16) and fast.
package gpu

import (
	"fmt"

	"gpucluster/internal/vecmath"
)

// TexelBytes is the storage size of one RGBA float32 texel.
const TexelBytes = 16

// Texture2D is a W x H grid of RGBA float32 texels residing in simulated
// device memory. Textures are created through a Device so that memory
// accounting is enforced.
type Texture2D struct {
	w, h   int
	data   []vecmath.Vec4
	device *Device
	freed  bool
}

// Bytes returns the device memory consumed by the texture.
func (t *Texture2D) Bytes() int64 { return int64(t.w) * int64(t.h) * TexelBytes }

// Fetch returns the texel at (x, y) with clamp-to-edge addressing, the
// standard texture addressing mode used by the paper's fragment programs.
func (t *Texture2D) Fetch(x, y int) vecmath.Vec4 {
	if x < 0 {
		x = 0
	} else if x >= t.w {
		x = t.w - 1
	}
	if y < 0 {
		y = 0
	} else if y >= t.h {
		y = t.h - 1
	}
	return t.data[y*t.w+x]
}

// FetchWrap returns the texel at (x, y) with repeat (wrap-around)
// addressing, used for periodic boundary conditions.
func (t *Texture2D) FetchWrap(x, y int) vecmath.Vec4 {
	x %= t.w
	if x < 0 {
		x += t.w
	}
	y %= t.h
	if y < 0 {
		y += t.h
	}
	return t.data[y*t.w+x]
}

// TexelRow is a read-only view of one texture row, for programs that
// sweep it: At(x) is Fetch(x, y) without the clamp.
type TexelRow struct{ texels []vecmath.Vec4 }

// Row returns row y's view; y must lie inside the texture.
func (t *Texture2D) Row(y int) TexelRow { return TexelRow{t.data[y*t.w : (y+1)*t.w]} }

// At returns texel x of the row.
func (r TexelRow) At(x int) vecmath.Vec4 { return r.texels[x] }

// Chan returns channel c of texel x of the row, a swizzled fetch: it
// reads one float where At copies all four.
func (r TexelRow) Chan(x, c int) float32 { return r.texels[x][c] }

// At returns the texel at (x, y) without clamping; callers must stay in
// bounds. It exists for host-side verification code, not for fragment
// programs.
func (t *Texture2D) At(x, y int) vecmath.Vec4 { return t.data[y*t.w+x] }

// TextureStack is a stack of same-sized 2D textures representing a volume,
// the layout of Figure 5 in the paper: a W x H x D volume of Vec4 state is
// stored as D textures of W x H texels.
type TextureStack struct {
	name   string
	layers []*Texture2D
}

// Depth returns the number of layers in the stack.
func (s *TextureStack) Depth() int { return len(s.layers) }

// Layer returns the z-th 2D texture of the stack.
func (s *TextureStack) Layer(z int) *Texture2D { return s.layers[z] }

// Width returns the per-layer width.
func (s *TextureStack) Width() int { return s.layers[0].w }

// Height returns the per-layer height.
func (s *TextureStack) Height() int { return s.layers[0].h }

// Fetch performs a clamped 3D fetch by clamping z to the stack and
// delegating to the layer's 2D fetch.
func (s *TextureStack) Fetch(x, y, z int) vecmath.Vec4 {
	if z < 0 {
		z = 0
	} else if z >= len(s.layers) {
		z = len(s.layers) - 1
	}
	return s.layers[z].Fetch(x, y)
}

// Bytes returns the total device memory held by the stack.
func (s *TextureStack) Bytes() int64 {
	var n int64
	for _, l := range s.layers {
		n += l.Bytes()
	}
	return n
}

func (s *TextureStack) String() string {
	return fmt.Sprintf("stack %q %dx%dx%d", s.name, s.Width(), s.Height(), s.Depth())
}
