package gpu

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"gpucluster/internal/bus"
	"gpucluster/internal/vecmath"
)

// ErrOutOfMemory is returned when a texture allocation would exceed the
// device's usable texture memory. The paper hit exactly this wall: of the
// FX 5800 Ultra's 128 MB, at most 86 MB could hold lattice data, capping
// the single-GPU lattice at 92^3.
var ErrOutOfMemory = errors.New("gpu: out of texture memory")

// ErrFreed is returned when an operation references a texture or a
// pbuffer that has been freed.
var ErrFreed = errors.New("gpu: texture already freed")

// Stats aggregates instrumentation counters for one device. All byte and
// time accounting for host<->device traffic is delegated to the bus model.
type Stats struct {
	Passes        int64 // render passes executed
	Fragments     int64 // fragments shaded
	TextureCopies int64 // pbuffer -> texture copy operations
	CopiedTexels  int64 // texels moved by those copies
	Allocations   int64 // textures allocated over the device lifetime
}

// Config describes a simulated GPU.
type Config struct {
	// Name identifies the device model in logs.
	Name string
	// TextureMemory is the total on-board memory in bytes.
	TextureMemory int64
	// Reserved is memory unavailable to compute data (framebuffer,
	// driver, pbuffers). Usable memory is TextureMemory - Reserved.
	Reserved int64
	// Workers is the number of concurrent fragment workers; 0 means
	// GOMAXPROCS. The FX 5800 Ultra had 8 (reduced-rate) fragment pipes,
	// its successor 16; the simulation uses host CPUs instead.
	Workers int
	// Bus is the host<->device transfer model. If nil, AGP 8x is used.
	Bus *bus.Bus
}

// GeForceFX5800Ultra returns the configuration of the paper's GPU: 128 MB
// on-board memory with 86 MB usable for lattice textures, on an AGP 8x bus.
func GeForceFX5800Ultra() Config {
	return Config{
		Name:          "GeForce FX 5800 Ultra",
		TextureMemory: 128 << 20,
		Reserved:      42 << 20, // leaves the paper's observed 86 MB usable
		Bus:           bus.AGP8x(),
	}
}

// Device is one simulated GPU. A Device is safe for use by a single
// owning goroutine (one cluster node drives one GPU, as in the paper);
// the fragment worker pool inside a pass is managed by the device itself.
type Device struct {
	cfg  Config
	used int64
	bus  *bus.Bus

	// Stats is the instrumentation block; read it after runs complete.
	Stats Stats

	workers int
	mu      sync.Mutex // guards used (textures may be freed from tests)
}

// New creates a device from cfg, applying defaults for zero fields.
func New(cfg Config) *Device {
	if cfg.TextureMemory == 0 {
		cfg.TextureMemory = 128 << 20
	}
	if cfg.Bus == nil {
		cfg.Bus = bus.AGP8x()
	}
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Device{cfg: cfg, bus: cfg.Bus, workers: w}
}

// Bus returns the host<->device bus model in use.
func (d *Device) Bus() *bus.Bus { return d.bus }

// UsableMemory returns the texture memory available for allocations.
func (d *Device) UsableMemory() int64 { return d.cfg.TextureMemory - d.cfg.Reserved }

// UsedMemory returns the currently allocated texture memory.
func (d *Device) UsedMemory() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// NewTexture2D allocates a w x h RGBA float texture, charging it against
// the device memory budget; name labels it in the out-of-memory error
// and is not kept.
func (d *Device) NewTexture2D(name string, w, h int) (*Texture2D, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("gpu: invalid texture size %dx%d", w, h)
	}
	bytes := int64(w) * int64(h) * TexelBytes
	d.mu.Lock()
	if d.used+bytes > d.UsableMemory() {
		d.mu.Unlock()
		return nil, fmt.Errorf("%w: texture %q needs %d bytes, %d of %d used",
			ErrOutOfMemory, name, bytes, d.used, d.UsableMemory())
	}
	d.used += bytes
	d.Stats.Allocations++
	d.mu.Unlock()
	return &Texture2D{
		w:      w,
		h:      h,
		data:   make([]vecmath.Vec4, w*h),
		device: d,
	}, nil
}

// NewStack allocates a stack of depth w x h textures (a volume).
func (d *Device) NewStack(name string, w, h, depth int) (*TextureStack, error) {
	if depth <= 0 {
		return nil, fmt.Errorf("gpu: invalid stack depth %d", depth)
	}
	s := &TextureStack{name: name, layers: make([]*Texture2D, depth)}
	for z := range s.layers {
		t, err := d.NewTexture2D(name, w, h)
		if err != nil {
			s.Free() // release the layers allocated so far
			return nil, err
		}
		s.layers[z] = t
	}
	return s, nil
}

// Free releases the texture's memory back to the device budget; every
// later operation on it returns ErrFreed. Freeing it again is a no-op.
func (t *Texture2D) Free() {
	if t == nil || t.freed {
		return
	}
	t.freed = true
	d := t.device
	d.mu.Lock()
	d.used -= t.Bytes()
	d.mu.Unlock()
	t.data = nil
}

// Free releases every layer of the stack.
func (s *TextureStack) Free() {
	for _, l := range s.layers {
		l.Free()
	}
}

// Upload transfers host data into the texture, row-major, 4 floats per
// texel, crossing the downstream (host -> GPU) direction of the bus. The
// data length must be exactly w*h*4 floats.
func (d *Device) Upload(t *Texture2D, data []float32) error {
	if t.freed {
		return ErrFreed
	}
	if len(data) != t.w*t.h*4 {
		return fmt.Errorf("gpu: upload size %d != %d texels * 4", len(data), t.w*t.h)
	}
	for i := range t.data {
		t.data[i] = vecmath.Vec4{data[4*i], data[4*i+1], data[4*i+2], data[4*i+3]}
	}
	d.bus.Download(int64(len(data)) * 4) // "downstream" = toward the GPU
	return nil
}

// Download reads the whole texture back to the host, crossing the slow
// upstream (GPU -> host) direction of the bus — the paper's glGetTexImage
// path. This is deliberately a single bulk read: Section 4.3 explains that
// border data are first gathered into one texture precisely so that the
// read-back is one operation. The texels land in dst, resliced to
// w*h*4 floats, when its capacity suffices, and in a new slice
// otherwise (dst may be nil); the filled slice is returned.
func (d *Device) Download(t *Texture2D, dst []float32) ([]float32, error) {
	if t.freed {
		return nil, ErrFreed
	}
	n := t.w * t.h * 4
	out := dst[:0]
	if cap(out) < n {
		out = make([]float32, n)
	}
	out = out[:n]
	for i, v := range t.data {
		out[4*i], out[4*i+1], out[4*i+2], out[4*i+3] = v[0], v[1], v[2], v[3]
	}
	d.bus.Upload(int64(len(out)) * 4) // "upstream" = toward the host
	return out, nil
}

// CopyToTexture copies the pbuffer contents into the destination texture
// (the paper's "results are copied to textures for temporary storage").
// Sizes must match exactly.
func (d *Device) CopyToTexture(pb *PBuffer, dst *Texture2D) error {
	if pb.freed || dst.freed {
		return ErrFreed
	}
	if pb.w != dst.w || pb.h != dst.h {
		return fmt.Errorf("gpu: copy size mismatch %dx%d -> %dx%d", pb.w, pb.h, dst.w, dst.h)
	}
	copy(dst.data, pb.data)
	d.Stats.TextureCopies++
	d.Stats.CopiedTexels += int64(len(pb.data))
	return nil
}
