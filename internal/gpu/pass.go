package gpu

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"gpucluster/internal/vecmath"
)

// Sampler is the read-only view of a texture handed to fragment programs.
// Providing only gather operations — arbitrary-position reads — encodes
// the key constraint of the fragment stage: programs may fetch texels from
// anywhere but can write only their own output fragment.
type Sampler interface {
	// Fetch returns the texel at (x, y) with clamp-to-edge addressing.
	Fetch(x, y int) vecmath.Vec4
	// FetchWrap returns the texel at (x, y) with repeat addressing.
	FetchWrap(x, y int) vecmath.Vec4
}

// FragmentProgram is a user-defined program, the Cg fragment program of
// the paper, run once per viewport row. It receives the bound textures,
// the row y and its first column x0, and writes out[k], the RGBA result
// of fragment (x0+k, y) — and nothing else: out is that row's span of the
// render target, and textures are read-only, so there is no scatter.
type FragmentProgram func(tex []Sampler, y, x0 int, out []vecmath.Vec4)

// Rect is a half-open viewport rectangle [X0,X1) x [Y0,Y1). The zero Rect
// means "the whole render target". Sub-rectangle viewports model the
// paper's technique of covering only the boundary regions of each Z slice
// with multiple small rectangles.
type Rect struct {
	X0, Y0, X1, Y1 int
}

// Empty reports whether r is the zero rectangle.
func (r Rect) Empty() bool { return r == Rect{} }

// Fragments returns the number of fragments the rectangle covers.
func (r Rect) Fragments() int { return (r.X1 - r.X0) * (r.Y1 - r.Y0) }

// PBuffer is a render target in device memory (the pixel-buffer of the
// paper). Results rendered into a pbuffer must be copied into a texture
// (Device.CopyToTexture) before later passes can fetch them.
type PBuffer struct {
	w, h  int
	data  []vecmath.Vec4
	freed bool
	dev   *Device
}

// NewPBuffer allocates a render target, charged against device memory.
func (d *Device) NewPBuffer(name string, w, h int) (*PBuffer, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("gpu: invalid pbuffer size %dx%d", w, h)
	}
	bytes := int64(w) * int64(h) * TexelBytes
	d.mu.Lock()
	if d.used+bytes > d.UsableMemory() {
		d.mu.Unlock()
		return nil, fmt.Errorf("%w: pbuffer %q needs %d bytes", ErrOutOfMemory, name, bytes)
	}
	d.used += bytes
	d.mu.Unlock()
	return &PBuffer{w: w, h: h, data: make([]vecmath.Vec4, w*h), dev: d}, nil
}

// Free releases the pbuffer's device memory.
func (pb *PBuffer) Free() {
	if pb == nil || pb.freed {
		return
	}
	pb.freed = true
	pb.dev.mu.Lock()
	pb.dev.used -= int64(pb.w) * int64(pb.h) * TexelBytes
	pb.dev.mu.Unlock()
	pb.data = nil
}

// At returns the rendered fragment at (x, y); host-side verification only.
func (pb *PBuffer) At(x, y int) vecmath.Vec4 { return pb.data[y*pb.w+x] }

// Pass describes one render pass: a fragment program drawn over a viewport
// of a render target with a set of bound input textures.
type Pass struct {
	// Name labels the pass in the error a malformed pass returns and is
	// read nowhere else: give it a constant, not a string formatted per
	// pass.
	Name string
	// Target receives the shaded fragments.
	Target *PBuffer
	// Viewport restricts shading to a sub-rectangle; zero = full target.
	Viewport Rect
	// Textures are the bound texture units, indexed as given.
	Textures []Sampler
	// Program is invoked once per viewport row.
	Program FragmentProgram
}

var errNilProgram = errors.New("gpu: pass has nil program")

// serialThreshold is the fragment count below which a pass runs on the
// calling goroutine; tiny boundary-rectangle passes are not worth fanning
// out.
const serialThreshold = 4096

// Run executes the pass, shading every row of the viewport in parallel
// across the device's worker pool. It returns an error for malformed
// passes (nil program, freed or out-of-range target, nil or freed texture).
func (d *Device) Run(p Pass) error {
	if p.Program == nil {
		return errNilProgram
	}
	if p.Target == nil || p.Target.freed {
		return fmt.Errorf("gpu: pass %q: invalid render target", p.Name)
	}
	vp := p.Viewport
	if vp.Empty() {
		vp = Rect{0, 0, p.Target.w, p.Target.h}
	}
	if vp.X0 < 0 || vp.Y0 < 0 || vp.X1 > p.Target.w || vp.Y1 > p.Target.h ||
		vp.X0 > vp.X1 || vp.Y0 > vp.Y1 {
		return fmt.Errorf("gpu: pass %q: viewport %+v outside %dx%d target",
			p.Name, vp, p.Target.w, p.Target.h)
	}
	for i, t := range p.Textures {
		tex, ok := t.(*Texture2D)
		if t == nil || ok && tex == nil {
			return fmt.Errorf("gpu: pass %q: nil texture bound at unit %d", p.Name, i)
		}
		if ok && tex.freed {
			return fmt.Errorf("gpu: pass %q: texture unit %d: %w", p.Name, i, ErrFreed)
		}
	}

	frags := vp.Fragments()
	d.Stats.Passes++
	d.Stats.Fragments += int64(frags)
	if frags == 0 {
		return nil
	}

	if frags < serialThreshold || d.workers == 1 {
		for y := vp.Y0; y < vp.Y1; y++ {
			p.shadeRow(vp, y)
		}
		return nil
	}

	d.shadeParallel(p, vp)
	return nil
}

// shadeRow runs the program over row y of the viewport's span.
func (p *Pass) shadeRow(vp Rect, y int) {
	row := p.Target.data[y*p.Target.w:]
	p.Program(p.Textures, y, vp.X0, row[vp.X0:vp.X1:vp.X1])
}

// shadeParallel shades the viewport across the worker pool. Rows are
// claimed by an atomic cursor so uneven program costs (boundary rows vs.
// interior rows) balance across workers. It is its own function so that
// what the worker closures capture is heap-allocated here only, and the
// serial path of Run stays allocation-free.
func (d *Device) shadeParallel(p Pass, vp Rect) {
	var next int64 = int64(vp.Y0)
	var wg sync.WaitGroup
	workers := d.workers
	if rows := vp.Y1 - vp.Y0; workers > rows {
		workers = rows
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				y := int(atomic.AddInt64(&next, 1)) - 1
				if y >= vp.Y1 {
					return
				}
				p.shadeRow(vp, y)
			}
		}()
	}
	wg.Wait()
}

// RunAndCopy executes the pass and copies the full target into dst, the
// ubiquitous "render then copy back to texture" cycle of GPU computing.
func (d *Device) RunAndCopy(p Pass, dst *Texture2D) error {
	if err := d.Run(p); err != nil {
		return err
	}
	return d.CopyToTexture(p.Target, dst)
}
