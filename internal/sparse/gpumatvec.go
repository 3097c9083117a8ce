package sparse

import (
	"fmt"
	"math"

	"gpucluster/internal/gpu"
	"gpucluster/internal/vecmath"
)

// GPUMatVec evaluates y = A x on the simulated GPU using the indirection
// texture technique Section 6 describes for unstructured data: "using
// indirection textures, the texture coordinates of neighbors of each
// point can also be stored. Accessing neighbor variables will require
// two texture fetch operations" — the first fetch reads the neighbor's
// texture coordinates (here: the packed column index), the second the
// neighbor's value.
//
// Layout: the vector x lives in a W x H texture (row-major, one element
// per texel's R channel). The matrix is stored ELL-style as K pairs of
// textures (one per nonzero slot per row): a value texture and an
// indirection texture holding the column's texel coordinates; rows with
// fewer than K entries pad with zero values.
type GPUMatVec struct {
	a      *CSR
	dev    *gpu.Device
	w, h   int
	k      int
	xTex   *gpu.Texture2D
	valTex []*gpu.Texture2D
	idxTex []*gpu.Texture2D
	pb     *gpu.PBuffer
}

// NewGPUMatVec uploads the matrix structure to the device.
func NewGPUMatVec(dev *gpu.Device, a *CSR) (*GPUMatVec, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparse: GPU matvec needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	w := int(math.Ceil(math.Sqrt(float64(a.Rows))))
	h := (a.Rows + w - 1) / w
	g := &GPUMatVec{a: a, dev: dev, w: w, h: h, k: a.MaxRowNNZ()}

	var err error
	g.xTex, err = dev.NewTexture2D("x", w, h)
	if err != nil {
		return nil, err
	}
	g.pb, err = dev.NewPBuffer("y", w, h)
	if err != nil {
		g.Free()
		return nil, err
	}
	for s := 0; s < g.k; s++ {
		val := make([]float32, w*h*4)
		idx := make([]float32, w*h*4)
		for r := 0; r < a.Rows; r++ {
			base := a.RowPtr[r] + s
			if base < a.RowPtr[r+1] {
				val[4*r] = a.Val[base]
				col := a.ColIdx[base]
				idx[4*r] = float32(col % w)
				idx[4*r+1] = float32(col / w)
			}
		}
		vt, err := dev.NewTexture2D(fmt.Sprintf("val%d", s), w, h)
		if err != nil {
			g.Free()
			return nil, err
		}
		it, err := dev.NewTexture2D(fmt.Sprintf("idx%d", s), w, h)
		if err != nil {
			vt.Free()
			g.Free()
			return nil, err
		}
		if err := dev.Upload(vt, val); err != nil {
			g.Free()
			return nil, err
		}
		if err := dev.Upload(it, idx); err != nil {
			g.Free()
			return nil, err
		}
		g.valTex = append(g.valTex, vt)
		g.idxTex = append(g.idxTex, it)
	}
	return g, nil
}

// Free releases device memory.
func (g *GPUMatVec) Free() {
	if g.xTex != nil {
		g.xTex.Free()
	}
	if g.pb != nil {
		g.pb.Free()
	}
	for _, t := range g.valTex {
		t.Free()
	}
	for _, t := range g.idxTex {
		t.Free()
	}
}

// MulVec computes y = A x through render passes.
func (g *GPUMatVec) MulVec(x []float32) ([]float32, error) {
	if len(x) != g.a.Cols {
		return nil, fmt.Errorf("sparse: GPU MulVec dim %d != %d", len(x), g.a.Cols)
	}
	xData := make([]float32, g.w*g.h*4)
	for i, v := range x {
		xData[4*i] = v
	}
	if err := g.dev.Upload(g.xTex, xData); err != nil {
		return nil, err
	}
	k := g.k
	valTex, idxTex, xTex := g.valTex, g.idxTex, g.xTex
	err := g.dev.Run(gpu.Pass{
		Name:   "spmv",
		Target: g.pb,
		Program: func(_ []gpu.Sampler, py, x0 int, out []vecmath.Vec4) {
			for px := x0; px < x0+len(out); px++ {
				var acc float32
				for s := 0; s < k; s++ {
					v := valTex[s].Fetch(px, py)[0]
					if v == 0 {
						continue
					}
					// First fetch: the indirection texture gives the
					// neighbor's texture coordinates; second fetch: the
					// neighbor's value.
					coord := idxTex[s].Fetch(px, py)
					acc += v * xTex.Fetch(int(coord[0]), int(coord[1]))[0]
				}
				out[px-x0] = vecmath.Vec4{acc, 0, 0, 0}
			}
		},
	})
	if err != nil {
		return nil, err
	}
	out := make([]float32, g.a.Rows)
	for r := range out {
		out[r] = g.pb.At(r%g.w, r/g.w)[0]
	}
	return out, nil
}
