package gpu

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"gpucluster/internal/vecmath"
)

func testDevice() *Device {
	return New(Config{Name: "test", TextureMemory: 64 << 20, Workers: 4})
}

func TestTextureFetchClamp(t *testing.T) {
	d := testDevice()
	tex, err := d.NewTexture2D("t", 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	up := make([]float32, 4*3*4)
	for i := 0; i < 4*3; i++ {
		up[4*i] = float32(i)
	}
	if err := d.Upload(tex, up); err != nil {
		t.Fatal(err)
	}
	if got := tex.Fetch(0, 0)[0]; got != 0 {
		t.Errorf("Fetch(0,0) = %v", got)
	}
	if got := tex.Fetch(3, 2)[0]; got != 11 {
		t.Errorf("Fetch(3,2) = %v", got)
	}
	// Clamp-to-edge addressing.
	if got := tex.Fetch(-5, 0); got != tex.Fetch(0, 0) {
		t.Errorf("negative x should clamp: %v", got)
	}
	if got := tex.Fetch(100, 100); got != tex.Fetch(3, 2) {
		t.Errorf("overflow should clamp: %v", got)
	}
}

func TestTextureFetchWrap(t *testing.T) {
	d := testDevice()
	tex, _ := d.NewTexture2D("t", 4, 4)
	up := make([]float32, 4*4*4)
	for i := 0; i < 16; i++ {
		up[4*i] = float32(i)
	}
	d.Upload(tex, up)
	if got, want := tex.FetchWrap(5, 0), tex.Fetch(1, 0); got != want {
		t.Errorf("FetchWrap(5,0) = %v, want %v", got, want)
	}
	if got, want := tex.FetchWrap(-1, -1), tex.Fetch(3, 3); got != want {
		t.Errorf("FetchWrap(-1,-1) = %v, want %v", got, want)
	}
}

func TestUploadDownloadRoundTrip(t *testing.T) {
	d := testDevice()
	tex, _ := d.NewTexture2D("t", 8, 8)
	up := make([]float32, 8*8*4)
	rng := rand.New(rand.NewSource(42))
	for i := range up {
		up[i] = rng.Float32()
	}
	if err := d.Upload(tex, up); err != nil {
		t.Fatal(err)
	}
	down, err := d.Download(tex, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range up {
		if up[i] != down[i] {
			t.Fatalf("round trip mismatch at %d: %v != %v", i, up[i], down[i])
		}
	}
	// The transfers must have crossed the bus model.
	if d.Bus().Down.Bytes == 0 || d.Bus().Up.Bytes == 0 {
		t.Errorf("bus not charged: %+v %+v", d.Bus().Down, d.Bus().Up)
	}
}

// TestDownloadFillsCallerBuffer: a destination with room is filled in
// place, a short one is replaced, and the bus is charged the texture's
// bytes either way.
func TestDownloadFillsCallerBuffer(t *testing.T) {
	d := testDevice()
	tex, _ := d.NewTexture2D("t", 4, 2)
	up := make([]float32, 4*2*4)
	for i := range up {
		up[i] = float32(i)
	}
	if err := d.Upload(tex, up); err != nil {
		t.Fatal(err)
	}
	roomy := make([]float32, 3, 64)
	got, err := d.Download(tex, roomy)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(up) || &got[0] != &roomy[:1][0] {
		t.Fatalf("download into a 64-float buffer returned %d floats in another array", len(got))
	}
	short, err := d.Download(tex, make([]float32, 8))
	if err != nil {
		t.Fatal(err)
	}
	for i := range up {
		if got[i] != up[i] || short[i] != up[i] {
			t.Fatalf("float %d: %v and %v, want %v", i, got[i], short[i], up[i])
		}
	}
	if b := d.Bus().Up.Bytes; b != 2*int64(len(up))*4 {
		t.Fatalf("bus carried %d bytes upstream, want %d", b, 2*len(up)*4)
	}
}

func TestUploadSizeValidation(t *testing.T) {
	d := testDevice()
	tex, _ := d.NewTexture2D("t", 4, 4)
	if err := d.Upload(tex, make([]float32, 7)); err == nil {
		t.Fatal("short upload should fail")
	}
}

func TestMemoryBudget(t *testing.T) {
	d := New(Config{TextureMemory: 1 << 20, Reserved: 0, Workers: 1})
	// 1 MB budget = 65536 texels.
	tex, err := d.NewTexture2D("big", 256, 128) // 32768 texels = 512 KB
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.NewTexture2D("toobig", 256, 256); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
	tex.Free()
	if _, err := d.NewTexture2D("fits-now", 256, 256); err != nil {
		t.Fatalf("after free the allocation should fit: %v", err)
	}
	if d.UsedMemory() != 256*256*TexelBytes {
		t.Errorf("used = %d", d.UsedMemory())
	}
}

func TestFX5800LatticeCapacity(t *testing.T) {
	// The paper: at most 86 MB usable, capping the D3Q19 lattice at 92^3.
	// D3Q19 needs 5 distribution stacks + 1 density/velocity stack of
	// N^2 x N texels each = 6 * N^3 texels * 16 B.
	d := New(GeForceFX5800Ultra())
	alloc := func(n int) error {
		var stacks []*TextureStack
		defer func() {
			for _, s := range stacks {
				s.Free()
			}
		}()
		for i := 0; i < 6; i++ {
			s, err := d.NewStack("f", n, n, n)
			if err != nil {
				return err
			}
			stacks = append(stacks, s)
		}
		return nil
	}
	if err := alloc(92); err != nil {
		t.Fatalf("92^3 lattice should fit in 86 MB: %v", err)
	}
	if err := alloc(104); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("104^3 lattice should exceed 86 MB, got %v", err)
	}
}

func TestStackLayersAndFetch(t *testing.T) {
	d := testDevice()
	s, err := d.NewStack("vol", 4, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Depth() != 3 || s.Width() != 4 || s.Height() != 4 {
		t.Fatalf("bad stack dims: %v", s)
	}
	up := make([]float32, 4*4*4)
	up[0] = 7
	d.Upload(s.Layer(2), up)
	if got := s.Fetch(0, 0, 2)[0]; got != 7 {
		t.Errorf("Fetch z=2 = %v", got)
	}
	if got := s.Fetch(0, 0, 99); got != s.Fetch(0, 0, 2) {
		t.Errorf("z clamp failed")
	}
	if got := s.Fetch(0, 0, -1); got != s.Fetch(0, 0, 0) {
		t.Errorf("negative z clamp failed")
	}
}

func TestStackAllocationRollback(t *testing.T) {
	// If a stack allocation fails partway, already-allocated layers must
	// be released.
	d := New(Config{TextureMemory: 3 * 64 * 64 * TexelBytes, Workers: 1})
	if _, err := d.NewStack("v", 64, 64, 5); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected OOM, got %v", err)
	}
	if d.UsedMemory() != 0 {
		t.Fatalf("partial stack leaked %d bytes", d.UsedMemory())
	}
}

func TestPassFullTarget(t *testing.T) {
	d := testDevice()
	pb, _ := d.NewPBuffer("out", 16, 16)
	err := d.Run(Pass{
		Name:   "coords",
		Target: pb,
		Program: func(tex []Sampler, y, x0 int, out []vecmath.Vec4) {
			for k := range out {
				out[k] = vecmath.Vec4{float32(x0 + k), float32(y), 0, 1}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			if got := pb.At(x, y); got[0] != float32(x) || got[1] != float32(y) {
				t.Fatalf("fragment (%d,%d) = %v", x, y, got)
			}
		}
	}
	if d.Stats.Passes != 1 || d.Stats.Fragments != 256 {
		t.Errorf("stats = %+v", d.Stats)
	}
}

// TestPassViewportRectangle is the span contract of Run: the program is
// called once for each viewport row, with x0 the viewport's first
// column and out exactly the viewport's width, whichever path shades
// the pass, and texels outside the viewport are untouched. The paper
// covers boundary regions with small viewport rectangles; the large
// one fans out over the worker pool.
func TestPassViewportRectangle(t *testing.T) {
	for _, tc := range []struct {
		w, h    int
		vp      Rect
		workers int
	}{
		{8, 8, Rect{2, 3, 5, 6}, 4},
		{96, 80, Rect{5, 7, 91, 79}, 4},
		{96, 80, Rect{5, 7, 91, 79}, 1},
	} {
		d := New(Config{TextureMemory: 64 << 20, Workers: tc.workers})
		pb, _ := d.NewPBuffer("out", tc.w, tc.h)
		calls := make([]atomic.Int32, tc.h)
		var bad atomic.Int32
		span := func(tex []Sampler, y, x0 int, out []vecmath.Vec4) {
			calls[y].Add(1)
			if x0 != tc.vp.X0 || len(out) != tc.vp.X1-tc.vp.X0 || cap(out) != len(out) {
				bad.Add(1)
			}
			for k := range out {
				out[k] = vecmath.Vec4{1, float32(x0 + k), float32(y), 0}
			}
		}
		if err := d.Run(Pass{Target: pb, Program: span, Viewport: tc.vp}); err != nil {
			t.Fatal(err)
		}
		if bad.Load() != 0 {
			t.Errorf("%+v: %d rows had x0 or out other than the viewport's", tc, bad.Load())
		}
		for y := range calls {
			want := int32(0)
			if y >= tc.vp.Y0 && y < tc.vp.Y1 {
				want = 1
			}
			if got := calls[y].Load(); got != want {
				t.Errorf("%+v: row %d shaded %d times, want %d", tc, y, got, want)
			}
		}
		for y := 0; y < tc.h; y++ {
			for x := 0; x < tc.w; x++ {
				inside := x >= tc.vp.X0 && x < tc.vp.X1 && y >= tc.vp.Y0 && y < tc.vp.Y1
				want := vecmath.Vec4{}
				if inside {
					want = vecmath.Vec4{1, float32(x), float32(y), 0}
				}
				if got := pb.At(x, y); got != want {
					t.Fatalf("%+v: texel (%d,%d) = %v, want %v", tc, x, y, got, want)
				}
			}
		}
		if d.Stats.Passes != 1 || d.Stats.Fragments != int64(tc.vp.Fragments()) {
			t.Errorf("%+v: stats = %+v", tc, d.Stats)
		}
	}
}

func TestPassGather(t *testing.T) {
	// A gather program: each fragment sums its 4 axial neighbors from a
	// bound texture.
	d := testDevice()
	src, _ := d.NewTexture2D("src", 8, 8)
	up := make([]float32, 8*8*4)
	for i := 0; i < 64; i++ {
		up[4*i] = 1
	}
	d.Upload(src, up)
	pb, _ := d.NewPBuffer("out", 8, 8)
	err := d.Run(Pass{
		Target:   pb,
		Textures: []Sampler{src},
		Program: func(tex []Sampler, y, x0 int, out []vecmath.Vec4) {
			for k := range out {
				x := x0 + k
				out[k] = tex[0].Fetch(x-1, y).Add(tex[0].Fetch(x+1, y)).
					Add(tex[0].Fetch(x, y-1)).Add(tex[0].Fetch(x, y+1))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := pb.At(4, 4)[0]; got != 4 {
		t.Errorf("interior gather = %v, want 4", got)
	}
}

func TestPassValidation(t *testing.T) {
	d := testDevice()
	pb, _ := d.NewPBuffer("out", 4, 4)
	if err := d.Run(Pass{Target: pb}); err == nil {
		t.Error("nil program should fail")
	}
	p := func(tex []Sampler, y, x0 int, out []vecmath.Vec4) {}
	if err := d.Run(Pass{Program: p}); err == nil {
		t.Error("nil target should fail")
	}
	if err := d.Run(Pass{Target: pb, Program: p, Viewport: Rect{0, 0, 9, 9}}); err == nil {
		t.Error("oversized viewport should fail")
	}
	if err := d.Run(Pass{Target: pb, Program: p, Textures: []Sampler{nil}}); err == nil {
		t.Error("nil bound texture should fail")
	}
	if err := d.Run(Pass{Target: pb, Program: p, Textures: []Sampler{(*Texture2D)(nil)}}); err == nil {
		t.Error("nil *Texture2D bound should fail")
	}
	freed, _ := d.NewPBuffer("f", 4, 4)
	freed.Free()
	if err := d.Run(Pass{Target: freed, Program: p}); err == nil {
		t.Error("freed target should fail")
	}
}

func TestCopyToTexture(t *testing.T) {
	d := testDevice()
	pb, _ := d.NewPBuffer("out", 4, 4)
	tex, _ := d.NewTexture2D("dst", 4, 4)
	p := func(tex []Sampler, y, x0 int, out []vecmath.Vec4) {
		for k := range out {
			out[k] = vecmath.Vec4{float32(x0 + k + y), 0, 0, 0}
		}
	}
	if err := d.RunAndCopy(Pass{Target: pb, Program: p}, tex); err != nil {
		t.Fatal(err)
	}
	if got := tex.Fetch(2, 1)[0]; got != 3 {
		t.Errorf("copied texel = %v, want 3", got)
	}
	wrong, _ := d.NewTexture2D("wrong", 3, 4)
	if err := d.CopyToTexture(pb, wrong); err == nil {
		t.Error("size mismatch copy should fail")
	}
}

func TestPingPongPasses(t *testing.T) {
	// The canonical GPU-compute cycle: pass renders to pbuffer, result is
	// copied to a texture, next pass reads it. Iterating a doubling
	// program k times must compute 2^k.
	d := testDevice()
	state, _ := d.NewTexture2D("state", 4, 4)
	pb, _ := d.NewPBuffer("pb", 4, 4)
	up := make([]float32, 4*4*4)
	for i := 0; i < 16; i++ {
		up[4*i] = 1
	}
	d.Upload(state, up)
	double := func(tex []Sampler, y, x0 int, out []vecmath.Vec4) {
		for k := range out {
			out[k] = tex[0].Fetch(x0+k, y).Scale(2)
		}
	}
	for i := 0; i < 10; i++ {
		if err := d.RunAndCopy(Pass{Target: pb, Textures: []Sampler{state}, Program: double}, state); err != nil {
			t.Fatal(err)
		}
	}
	if got := state.Fetch(2, 2)[0]; got != 1024 {
		t.Errorf("after 10 doublings = %v, want 1024", got)
	}
}

func TestParallelPassDeterminism(t *testing.T) {
	// A pass over a large target, whole or through a sub-rectangle
	// viewport past serialThreshold, must produce identical results with
	// 1 worker and many workers.
	run := func(workers int, vp Rect) []vecmath.Vec4 {
		d := New(Config{TextureMemory: 64 << 20, Workers: workers})
		src, _ := d.NewTexture2D("src", 128, 128)
		up := make([]float32, 128*128*4)
		rng := rand.New(rand.NewSource(7))
		for i := range up {
			up[i] = rng.Float32()
		}
		d.Upload(src, up)
		pb, _ := d.NewPBuffer("out", 128, 128)
		err := d.Run(Pass{
			Target:   pb,
			Viewport: vp,
			Textures: []Sampler{src},
			Program: func(tex []Sampler, y, x0 int, out []vecmath.Vec4) {
				for k := range out {
					a := tex[0].Fetch(x0+k-1, y-1)
					b := tex[0].Fetch(x0+k+1, y+1)
					out[k] = a.Add(b).Scale(0.5)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]vecmath.Vec4, 128*128)
		for y := 0; y < 128; y++ {
			for x := 0; x < 128; x++ {
				out[y*128+x] = pb.At(x, y)
			}
		}
		return out
	}
	sub := Rect{3, 9, 117, 124}
	if sub.Fragments() < serialThreshold {
		t.Fatalf("viewport %+v has %d fragments, below serialThreshold", sub, sub.Fragments())
	}
	for _, vp := range []Rect{{}, sub} {
		one := run(1, vp)
		eight := run(8, vp)
		for i := range one {
			if one[i] != eight[i] {
				t.Fatalf("viewport %+v: worker-count nondeterminism at texel %d: %v != %v", vp, i, one[i], eight[i])
			}
		}
	}
}

// Property: upload/download round-trips arbitrary payloads exactly.
func TestUploadDownloadProperty(t *testing.T) {
	d := testDevice()
	tex, _ := d.NewTexture2D("t", 16, 16)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		up := make([]float32, 16*16*4)
		for i := range up {
			up[i] = float32(rng.NormFloat64())
		}
		if err := d.Upload(tex, up); err != nil {
			return false
		}
		down, err := d.Download(tex, nil)
		if err != nil {
			return false
		}
		for i := range up {
			if up[i] != down[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestFreedTextureOperations: every operation that names a freed texture
// or pbuffer returns ErrFreed, moves nothing and counts nothing.
func TestFreedTextureOperations(t *testing.T) {
	d := testDevice()
	tex, _ := d.NewTexture2D("t", 4, 4)
	tex.Free()
	if err := d.Upload(tex, make([]float32, 64)); !errors.Is(err, ErrFreed) {
		t.Errorf("upload to freed texture: %v", err)
	}
	if _, err := d.Download(tex, nil); !errors.Is(err, ErrFreed) {
		t.Errorf("download of freed texture: %v", err)
	}
	tex.Free() // double free is a no-op
	if d.UsedMemory() != 0 {
		t.Errorf("double free corrupted accounting: %d", d.UsedMemory())
	}

	pb, _ := d.NewPBuffer("pb", 4, 4)
	dst, _ := d.NewTexture2D("dst", 4, 4)
	pb.Free()
	if err := d.CopyToTexture(pb, dst); !errors.Is(err, ErrFreed) {
		t.Errorf("copy from freed pbuffer: %v", err)
	}
	if err := d.CopyRect(pb, dst, Rect{0, 0, 2, 2}); !errors.Is(err, ErrFreed) {
		t.Errorf("rect copy from freed pbuffer: %v", err)
	}
	if d.Stats.TextureCopies != 0 || d.Stats.CopiedTexels != 0 {
		t.Errorf("refused copies were counted: %+v", d.Stats)
	}

	target, _ := d.NewPBuffer("target", 4, 4)
	fill := func(tex []Sampler, y, x0 int, out []vecmath.Vec4) {
		for k := range out {
			out[k] = tex[0].Fetch(x0+k, y)
		}
	}
	if err := d.Run(Pass{Target: target, Textures: []Sampler{dst, tex}, Program: fill}); !errors.Is(err, ErrFreed) {
		t.Errorf("pass with a freed texture bound: %v", err)
	}
	if d.Stats.Passes != 0 || d.Stats.Fragments != 0 {
		t.Errorf("refused pass was counted: %+v", d.Stats)
	}
}

func TestInvalidAllocations(t *testing.T) {
	d := testDevice()
	if _, err := d.NewTexture2D("bad", 0, 4); err == nil {
		t.Error("zero-width texture should fail")
	}
	if _, err := d.NewTexture2D("bad", 4, -1); err == nil {
		t.Error("negative-height texture should fail")
	}
	if _, err := d.NewStack("bad", 4, 4, 0); err == nil {
		t.Error("zero-depth stack should fail")
	}
	if _, err := d.NewPBuffer("bad", -1, 4); err == nil {
		t.Error("negative pbuffer should fail")
	}
}
