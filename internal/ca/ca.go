// Package ca implements cellular automata on the GPU cluster, the first
// of the additional computations discussed in Section 6 of the paper
// ("we expect that the GPU cluster computing can be applied to the
// entire class of explicit methods on structured grids and cellular
// automata as well"). Conway's Game of Life serves as the canonical CA:
// it runs on the CPU reference, as a fragment program on the simulated
// GPU (one texel per cell, one render pass per generation), and
// decomposed across cluster nodes with ghost-row exchange over mpi.
package ca

import (
	"fmt"

	"gpucluster/internal/gpu"
	"gpucluster/internal/mpi"
	"gpucluster/internal/vecmath"
)

// Grid is a 2D toroidal Game of Life board.
type Grid struct {
	W, H  int
	cells []uint8
	next  []uint8
}

// NewGrid creates an empty board.
func NewGrid(w, h int) *Grid {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("ca: invalid grid %dx%d", w, h))
	}
	return &Grid{W: w, H: h, cells: make([]uint8, w*h), next: make([]uint8, w*h)}
}

// Set marks cell (x, y) alive (v=1) or dead (v=0).
func (g *Grid) Set(x, y int, v uint8) { g.cells[y*g.W+x] = v }

// Alive reports whether cell (x, y) is alive.
func (g *Grid) Alive(x, y int) bool { return g.cells[y*g.W+x] != 0 }

// Population counts live cells.
func (g *Grid) Population() int {
	n := 0
	for _, c := range g.cells {
		n += int(c)
	}
	return n
}

// at reads with toroidal wrap.
func (g *Grid) at(x, y int) uint8 {
	x %= g.W
	if x < 0 {
		x += g.W
	}
	y %= g.H
	if y < 0 {
		y += g.H
	}
	return g.cells[y*g.W+x]
}

// liveRule applies Conway's rule to a cell with n live neighbors.
func liveRule(alive uint8, n int) uint8 {
	if alive != 0 {
		if n == 2 || n == 3 {
			return 1
		}
		return 0
	}
	if n == 3 {
		return 1
	}
	return 0
}

// Step advances one generation on the CPU.
func (g *Grid) Step() {
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			n := int(g.at(x-1, y-1)) + int(g.at(x, y-1)) + int(g.at(x+1, y-1)) +
				int(g.at(x-1, y)) + int(g.at(x+1, y)) +
				int(g.at(x-1, y+1)) + int(g.at(x, y+1)) + int(g.at(x+1, y+1))
			g.next[y*g.W+x] = liveRule(g.cells[y*g.W+x], n)
		}
	}
	g.cells, g.next = g.next, g.cells
}

// GPUGrid runs the same automaton as a fragment program on a simulated
// GPU: the board lives in a texture, each generation is one render pass
// with eight gather fetches, and the pbuffer result is copied back — the
// textbook Section 2 computation cycle.
type GPUGrid struct {
	W, H int
	dev  *gpu.Device
	tex  *gpu.Texture2D
	pb   *gpu.PBuffer
}

// NewGPUGrid allocates the board on the device.
func NewGPUGrid(dev *gpu.Device, w, h int) (*GPUGrid, error) {
	tex, err := dev.NewTexture2D("life", w, h)
	if err != nil {
		return nil, err
	}
	pb, err := dev.NewPBuffer("life-pb", w, h)
	if err != nil {
		tex.Free()
		return nil, err
	}
	return &GPUGrid{W: w, H: h, dev: dev, tex: tex, pb: pb}, nil
}

// Upload transfers a CPU board to the device.
func (g *GPUGrid) Upload(src *Grid) error {
	if src.W != g.W || src.H != g.H {
		return fmt.Errorf("ca: size mismatch %dx%d vs %dx%d", src.W, src.H, g.W, g.H)
	}
	data := make([]float32, g.W*g.H*4)
	for i, c := range src.cells {
		data[4*i] = float32(c)
	}
	return g.dev.Upload(g.tex, data)
}

// Download reads the device board back into a CPU grid.
func (g *GPUGrid) Download() (*Grid, error) {
	data, err := g.dev.Download(g.tex, nil)
	if err != nil {
		return nil, err
	}
	out := NewGrid(g.W, g.H)
	for i := range out.cells {
		if data[4*i] > 0.5 {
			out.cells[i] = 1
		}
	}
	return out, nil
}

// Step advances one generation with a single render pass.
func (g *GPUGrid) Step() error {
	pass := gpu.Pass{
		Name:     "life",
		Target:   g.pb,
		Textures: []gpu.Sampler{g.tex},
		Program: func(tex []gpu.Sampler, y, x0 int, out []vecmath.Vec4) {
			t := tex[0]
			for x := x0; x < x0+len(out); x++ {
				n := 0
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						if dx == 0 && dy == 0 {
							continue
						}
						if t.FetchWrap(x+dx, y+dy)[0] > 0.5 {
							n++
						}
					}
				}
				alive := uint8(0)
				if t.FetchWrap(x, y)[0] > 0.5 {
					alive = 1
				}
				out[x-x0] = vecmath.Vec4{float32(liveRule(alive, n)), 0, 0, 1}
			}
		},
	}
	return g.dev.RunAndCopy(pass, g.tex)
}

// ParallelSteps runs a board for the given generations decomposed into
// horizontal strips across ranks (one goroutine-node per strip) with
// ghost-row exchange each generation — the proxy-point pattern of
// Figure 14 applied to a CA. It returns the final board.
func ParallelSteps(start *Grid, ranks, generations int) *Grid {
	if start.H%ranks != 0 {
		panic(fmt.Sprintf("ca: %d rows not divisible by %d ranks", start.H, ranks))
	}
	rows := start.H / ranks
	w := start.W
	strips := make([][]uint8, ranks)

	world := mpi.NewWorld(ranks)
	world.Run(func(c *mpi.Comm) {
		r := c.Rank()
		// Local strip with two ghost rows.
		local := make([]uint8, (rows+2)*w)
		next := make([]uint8, (rows+2)*w)
		copy(local[w:], start.cells[r*rows*w:(r+1)*rows*w])

		up := (r - 1 + ranks) % ranks
		down := (r + 1) % ranks
		toF := func(b []uint8) []float32 {
			f := make([]float32, len(b))
			for i, v := range b {
				f[i] = float32(v)
			}
			return f
		}
		fromF := func(f []float32) []uint8 {
			b := make([]uint8, len(f))
			for i, v := range f {
				if v > 0.5 {
					b[i] = 1
				}
			}
			return b
		}
		for gen := 0; gen < generations; gen++ {
			// Exchange ghost rows (wrap decomposition: the torus is
			// preserved across strips). With 1 rank both neighbors are
			// self: wrap locally.
			if ranks == 1 {
				copy(local[:w], local[rows*w:(rows+1)*w])
				copy(local[(rows+1)*w:], local[w:2*w])
			} else {
				c.Send(up, gen*2, toF(local[w:2*w]))
				c.Send(down, gen*2+1, toF(local[rows*w:(rows+1)*w]))
				copy(local[(rows+1)*w:], fromF(c.Recv(down, gen*2)))
				copy(local[:w], fromF(c.Recv(up, gen*2+1)))
			}
			for y := 1; y <= rows; y++ {
				for x := 0; x < w; x++ {
					n := 0
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							if dx == 0 && dy == 0 {
								continue
							}
							xx := (x + dx + w) % w
							n += int(local[(y+dy)*w+xx])
						}
					}
					next[y*w+x] = liveRule(local[y*w+x], n)
				}
			}
			local, next = next, local
		}
		strip := make([]uint8, rows*w)
		copy(strip, local[w:(rows+1)*w])
		strips[r] = strip
	})

	out := NewGrid(start.W, start.H)
	for r, s := range strips {
		copy(out.cells[r*rows*w:], s)
	}
	return out
}
