package gpu

import (
	"errors"
	"math/rand"
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
		Program: func(tex []Sampler, x, y int) vecmath.Vec4 {
			return vecmath.Vec4{float32(x), float32(y), 0, 1}
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

func TestPassViewportRectangle(t *testing.T) {
	// The paper covers boundary regions with small viewport rectangles;
	// fragments outside the viewport must be untouched.
	d := testDevice()
	pb, _ := d.NewPBuffer("out", 8, 8)
	one := func(tex []Sampler, x, y int) vecmath.Vec4 { return vecmath.Vec4{1, 1, 1, 1} }
	if err := d.Run(Pass{Target: pb, Program: one, Viewport: Rect{2, 3, 5, 6}}); err != nil {
		t.Fatal(err)
	}
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			inside := x >= 2 && x < 5 && y >= 3 && y < 6
			got := pb.At(x, y)
			if inside && got[0] != 1 {
				t.Fatalf("(%d,%d) should be shaded", x, y)
			}
			if !inside && got[0] != 0 {
				t.Fatalf("(%d,%d) outside viewport was written", x, y)
			}
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
		Program: func(tex []Sampler, x, y int) vecmath.Vec4 {
			s := tex[0].Fetch(x-1, y).Add(tex[0].Fetch(x+1, y)).
				Add(tex[0].Fetch(x, y-1)).Add(tex[0].Fetch(x, y+1))
			return s
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
	p := func(tex []Sampler, x, y int) vecmath.Vec4 { return vecmath.Vec4{} }
	if err := d.Run(Pass{Program: p}); err == nil {
		t.Error("nil target should fail")
	}
	if err := d.Run(Pass{Target: pb, Program: p, Viewport: Rect{0, 0, 9, 9}}); err == nil {
		t.Error("oversized viewport should fail")
	}
	if err := d.Run(Pass{Target: pb, Program: p, Textures: []Sampler{nil}}); err == nil {
		t.Error("nil bound texture should fail")
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
	p := func(tex []Sampler, x, y int) vecmath.Vec4 { return vecmath.Vec4{float32(x + y), 0, 0, 0} }
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
	double := func(tex []Sampler, x, y int) vecmath.Vec4 {
		return tex[0].Fetch(x, y).Scale(2)
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
	// A pass over a large target must produce identical results with 1
	// worker and many workers.
	run := func(workers int) []vecmath.Vec4 {
		d := New(Config{TextureMemory: 64 << 20, Workers: workers})
		src, _ := d.NewTexture2D("src", 128, 128)
		up := make([]float32, 128*128*4)
		rng := rand.New(rand.NewSource(7))
		for i := range up {
			up[i] = rng.Float32()
		}
		d.Upload(src, up)
		pb, _ := d.NewPBuffer("out", 128, 128)
		d.Run(Pass{
			Target:   pb,
			Textures: []Sampler{src},
			Program: func(tex []Sampler, x, y int) vecmath.Vec4 {
				a := tex[0].Fetch(x-1, y-1)
				b := tex[0].Fetch(x+1, y+1)
				return a.Add(b).Scale(0.5)
			},
		})
		out := make([]vecmath.Vec4, 128*128)
		for y := 0; y < 128; y++ {
			for x := 0; x < 128; x++ {
				out[y*128+x] = pb.At(x, y)
			}
		}
		return out
	}
	one := run(1)
	eight := run(8)
	for i := range one {
		if one[i] != eight[i] {
			t.Fatalf("worker-count nondeterminism at texel %d: %v != %v", i, one[i], eight[i])
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
