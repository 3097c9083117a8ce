package lbmgpu

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gpucluster/internal/gpu"
	"gpucluster/internal/lbm"
	"gpucluster/internal/vecmath"
)

func newDevice() *gpu.Device {
	return gpu.New(gpu.Config{Name: "test", TextureMemory: 256 << 20, Workers: 4})
}

func noExchange(int) {}

// buildPair constructs a CPU lattice and its GPU twin from the same
// configuration closure.
func buildPair(t *testing.T, nx, ny, nz int, tau float32, configure func(l *lbm.Lattice)) (*lbm.Lattice, *Simulator) {
	t.Helper()
	cpu := lbm.New(nx, ny, nz, tau)
	configure(cpu)
	cpu.Init(1, vecmath.Vec3{})

	gpuSrc := lbm.New(nx, ny, nz, tau)
	configure(gpuSrc)
	gpuSrc.Init(1, vecmath.Vec3{})

	sim, err := New(newDevice(), gpuSrc)
	if err != nil {
		t.Fatal(err)
	}
	return cpu, sim
}

// assertDistributionsEqual compares all 19 post-collision distributions
// held in the GPU texture stacks against the CPU lattice's, bit for bit,
// on every interior cell.
func assertDistributionsEqual(t *testing.T, cpu *lbm.Lattice, sim *Simulator) {
	t.Helper()
	for z := 0; z < cpu.NZ; z++ {
		for y := 0; y < cpu.NY; y++ {
			for x := 0; x < cpu.NX; x++ {
				c := cpu.Idx(x, y, z)
				for i := 0; i < lbm.Q; i++ {
					got := sim.stacks[distStack(i)].Layer(z+1).At(x+1, y+1)[distChan(i)]
					if want := cpu.Post[i][c]; got != want {
						t.Fatalf("f[%d] mismatch at (%d,%d,%d): gpu %v cpu %v", i, x, y, z, got, want)
					}
				}
			}
		}
	}
}

// assertFieldsEqual compares the GPU macro fields against the CPU
// lattice's moments bit for bit.
func assertFieldsEqual(t *testing.T, cpu *lbm.Lattice, sim *Simulator) {
	t.Helper()
	den := sim.DensityField()
	vel := sim.VelocityField()
	i := 0
	var f [lbm.Q]float32
	for z := 0; z < cpu.NZ; z++ {
		for y := 0; y < cpu.NY; y++ {
			for x := 0; x < cpu.NX; x++ {
				if !cpu.IsSolid(x, y, z) {
					cpu.Gather(&f, x, y, z)
					rho, ux, uy, uz := lbm.Moments(&f)
					if den[i] != rho {
						t.Fatalf("density mismatch at (%d,%d,%d): gpu %v cpu %v",
							x, y, z, den[i], rho)
					}
					if vel[i] != (vecmath.Vec3{ux, uy, uz}) {
						t.Fatalf("velocity mismatch at (%d,%d,%d): gpu %v cpu %v",
							x, y, z, vel[i], vecmath.Vec3{ux, uy, uz})
					}
				}
				i++
			}
		}
	}
}

func stepBoth(cpu *lbm.Lattice, sim *Simulator, steps int) {
	for s := 0; s < steps; s++ {
		cpu.Step()
		sim.Step(noExchange)
	}
}

func TestGPUMatchesCPUPeriodicShear(t *testing.T) {
	// Both start at uniform equilibrium; add a body force to create
	// dynamics.
	cpu, sim := buildPair(t, 12, 10, 8, 0.8, func(l *lbm.Lattice) {
		l.Force = vecmath.Vec3{1e-4, 0, 0}
	})
	stepBoth(cpu, sim, 8)
	assertFieldsEqual(t, cpu, sim)
}

func TestGPUMatchesCPUWallsAndObstacle(t *testing.T) {
	configure := func(l *lbm.Lattice) {
		for f := range l.Faces {
			l.Faces[f] = lbm.FaceSpec{Type: lbm.Wall}
		}
		l.Faces[lbm.FaceXNeg] = lbm.FaceSpec{Type: lbm.Inlet, U: vecmath.Vec3{0.04, 0, 0}}
		l.Faces[lbm.FaceXPos] = lbm.FaceSpec{Type: lbm.Outflow}
		for z := 2; z < 5; z++ {
			for y := 3; y < 6; y++ {
				for x := 4; x < 7; x++ {
					l.SetSolid(x, y, z, true)
				}
			}
		}
	}
	cpu, sim := buildPair(t, 14, 10, 8, 0.8, configure)
	stepBoth(cpu, sim, 10)
	assertFieldsEqual(t, cpu, sim)
}

func TestGPUMatchesCPUMovingWallCavity(t *testing.T) {
	configure := func(l *lbm.Lattice) {
		for f := range l.Faces {
			l.Faces[f] = lbm.FaceSpec{Type: lbm.Wall}
		}
		l.Faces[lbm.FaceYPos] = lbm.FaceSpec{Type: lbm.MovingWall, U: vecmath.Vec3{0.06, 0, 0}}
	}
	cpu, sim := buildPair(t, 10, 10, 6, 0.9, configure)
	stepBoth(cpu, sim, 12)
	assertFieldsEqual(t, cpu, sim)
}

func TestGPUMatchesCPUInletWind(t *testing.T) {
	configure := func(l *lbm.Lattice) {
		l.Faces[lbm.FaceXNeg] = lbm.FaceSpec{Type: lbm.Inlet, U: vecmath.Vec3{0.05, 0.01, 0}}
		l.Faces[lbm.FaceXPos] = lbm.FaceSpec{Type: lbm.Outflow}
		l.Faces[lbm.FaceYNeg] = lbm.FaceSpec{Type: lbm.Outflow}
		l.Faces[lbm.FaceYPos] = lbm.FaceSpec{Type: lbm.Outflow}
		l.Faces[lbm.FaceZNeg] = lbm.FaceSpec{Type: lbm.Wall}
		l.Faces[lbm.FaceZPos] = lbm.FaceSpec{Type: lbm.Outflow}
	}
	cpu, sim := buildPair(t, 12, 10, 6, 0.7, configure)
	stepBoth(cpu, sim, 10)
	assertFieldsEqual(t, cpu, sim)
}

func TestGPUBorderPackMatchesCPU(t *testing.T) {
	// The GPU border gather + single read-back must produce exactly the
	// payload the CPU backend produces, making mixed clusters possible.
	configure := func(l *lbm.Lattice) {
		l.Faces[lbm.FaceXPos] = lbm.FaceSpec{Type: lbm.Ghost}
		l.Faces[lbm.FaceYPos] = lbm.FaceSpec{Type: lbm.Ghost}
		l.Faces[lbm.FaceZPos] = lbm.FaceSpec{Type: lbm.Ghost}
		l.Force = vecmath.Vec3{1e-4, 2e-5, 0}
	}
	cpu, sim := buildPair(t, 8, 7, 6, 0.8, configure)

	// Advance a few steps (treating ghost faces as stale) to produce a
	// non-trivial state on both sides.
	for s := 0; s < 3; s++ {
		cpu.Step()
		sim.Step(noExchange)
	}
	for dim := 0; dim < 3; dim++ {
		for _, dir := range []int{-1, +1} {
			want := cpu.PackBorder(dim, dir)
			got := sim.PackBorder(dim, dir)
			if len(got) != len(want) {
				t.Fatalf("dim %d dir %d: length %d != %d", dim, dir, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("dim %d dir %d: payload[%d] = %v, want %v",
						dim, dir, i, got[i], want[i])
				}
			}
		}
	}
}

func TestGPUUnpackRoundTrip(t *testing.T) {
	// Payload unpacked into the GPU ghost plane must be readable back by
	// the next pack of the opposite face... more directly: feed a CPU
	// payload into both backends and verify the next step stays equal.
	configure := func(l *lbm.Lattice) {
		l.Faces[lbm.FaceXNeg] = lbm.FaceSpec{Type: lbm.Ghost}
	}
	cpu, sim := buildPair(t, 8, 6, 6, 0.8, configure)

	// Manufacture a deterministic ghost payload.
	payload := make([]float32, cpu.BorderLen(0))
	for i := range payload {
		payload[i] = lbm.W[i%lbm.Q] * (1 + 0.01*float32(i%17))
	}
	feed := func(dim int) {
		if dim == 0 {
			cpu.UnpackGhost(0, -1, payload)
			sim.UnpackGhost(0, -1, payload)
		}
	}
	cpu.FillGhostDim(0)
	feed(0)
	cpu.FillGhostDim(1)
	cpu.FillGhostDim(2)
	cpu.Stream()
	cpu.Collide()

	sim.fillGhostDim(0)
	feed(0)
	sim.fillGhostDim(1)
	sim.fillGhostDim(2)
	sim.sweep()

	assertFieldsEqual(t, cpu, sim)
}

func TestGPUMassConservation(t *testing.T) {
	_, sim := buildPair(t, 10, 10, 8, 0.8, func(l *lbm.Lattice) {})
	m0 := sim.TotalMass()
	for s := 0; s < 20; s++ {
		sim.Step(noExchange)
	}
	m1 := sim.TotalMass()
	if rel := math.Abs(m1-m0) / m0; rel > 1e-5 {
		t.Errorf("GPU mass drifted: %v -> %v", m0, m1)
	}
}

func TestGPUPassAndTransferAccounting(t *testing.T) {
	_, sim := buildPair(t, 8, 8, 8, 0.8, func(l *lbm.Lattice) {})
	dev := sim.Device()
	p0 := dev.Stats.Passes
	sim.Step(noExchange)
	if dev.Stats.Passes <= p0 {
		t.Error("step executed no passes")
	}
	// A border pack must cost exactly one upstream read.
	up0 := dev.Bus().Up.Ops
	sim.PackBorder(0, +1)
	if got := dev.Bus().Up.Ops - up0; got != 1 {
		t.Errorf("border pack used %d upstream reads, want 1 (the paper's single gather read)", got)
	}
	// An unpack crosses only the fast downstream direction.
	down0 := dev.Bus().Down.Ops
	upBefore := dev.Bus().Up.Ops
	sim.UnpackGhost(0, -1, make([]float32, 5*8*8))
	if dev.Bus().Down.Ops == down0 {
		t.Error("unpack issued no downstream transfers")
	}
	if dev.Bus().Up.Ops != upBefore {
		t.Error("unpack must not read upstream")
	}
}

func TestGPURejectsUnsupportedConfigs(t *testing.T) {
	l := lbm.New(8, 8, 8, 0.8)
	l.Collision = lbm.NewMRT(0.8)
	l.Init(1, vecmath.Vec3{})
	if _, err := New(newDevice(), l); err == nil {
		t.Error("MRT should be rejected")
	}
	l2 := lbm.New(8, 8, 8, 0.8)
	l2.ForceField = make([]vecmath.Vec3, (8+2)*(8+2)*(8+2))
	l2.Init(1, vecmath.Vec3{})
	if _, err := New(newDevice(), l2); err == nil {
		t.Error("force fields should be rejected")
	}
}

func TestGPUOutOfMemory(t *testing.T) {
	dev := gpu.New(gpu.Config{TextureMemory: 4 << 20, Workers: 1})
	l := lbm.New(32, 32, 32, 0.8)
	l.Init(1, vecmath.Vec3{})
	if _, err := New(dev, l); err == nil {
		t.Error("allocation should exceed 4 MB")
	}
	// Failed construction must not leak device memory.
	if dev.UsedMemory() != 0 {
		t.Errorf("leaked %d bytes after failed construction", dev.UsedMemory())
	}
}

// flowCases are the boundary and forcing set-ups the GPU mapping must
// reproduce, on non-cubic lattices. The inlet/outflow case is wide enough
// in-plane for its passes to fan out over the device's fragment workers.
var flowCases = []struct {
	name       string
	nx, ny, nz int
	tau        float32
	u0         vecmath.Vec3
	configure  func(l *lbm.Lattice)
}{
	{"periodic", 11, 7, 5, 0.8, vecmath.Vec3{0.03, 0.01, -0.02}, func(l *lbm.Lattice) {
		l.SetSolid(4, 3, 2, true)
		l.SetSolid(5, 3, 2, true)
	}},
	{"inlet-outflow", 72, 60, 3, 0.7, vecmath.Vec3{}, func(l *lbm.Lattice) {
		l.Faces[lbm.FaceXNeg] = lbm.FaceSpec{Type: lbm.Inlet, U: vecmath.Vec3{0.05, 0.01, 0}, Rho: 1.02}
		l.Faces[lbm.FaceXPos] = lbm.FaceSpec{Type: lbm.Outflow}
		l.Faces[lbm.FaceYNeg] = lbm.FaceSpec{Type: lbm.Outflow}
		l.Faces[lbm.FaceYPos] = lbm.FaceSpec{Type: lbm.Outflow, Rho: 0.99}
		l.Faces[lbm.FaceZNeg] = lbm.FaceSpec{Type: lbm.Wall}
		l.Faces[lbm.FaceZPos] = lbm.FaceSpec{Type: lbm.Outflow}
	}},
	{"walls-obstacle", 13, 9, 6, 0.8, vecmath.Vec3{}, func(l *lbm.Lattice) {
		for f := range l.Faces {
			l.Faces[f] = lbm.FaceSpec{Type: lbm.Wall}
		}
		l.Faces[lbm.FaceXNeg] = lbm.FaceSpec{Type: lbm.Inlet, U: vecmath.Vec3{0.04, 0, 0}}
		l.Faces[lbm.FaceXPos] = lbm.FaceSpec{Type: lbm.Outflow}
		for z := 0; z < 4; z++ {
			for y := 3; y < 6; y++ {
				for x := 4; x < 7; x++ {
					l.SetSolid(x, y, z, true)
				}
			}
		}
	}},
	{"moving-wall-cavity", 9, 10, 6, 0.9, vecmath.Vec3{}, func(l *lbm.Lattice) {
		for f := range l.Faces {
			l.Faces[f] = lbm.FaceSpec{Type: lbm.Wall}
		}
		l.Faces[lbm.FaceYPos] = lbm.FaceSpec{Type: lbm.MovingWall, U: vecmath.Vec3{0.06, 0, 0.01}}
	}},
	{"body-force", 10, 6, 7, 0.8, vecmath.Vec3{}, func(l *lbm.Lattice) {
		l.Faces[lbm.FaceYNeg] = lbm.FaceSpec{Type: lbm.Wall}
		l.Faces[lbm.FaceYPos] = lbm.FaceSpec{Type: lbm.Wall}
		l.Force = vecmath.Vec3{1e-4, -2e-5, 3e-5}
	}},
}

func TestGPUMatchesCPUAllDistributions(t *testing.T) {
	const steps = 12
	for _, tc := range flowCases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				cpu := lbm.New(tc.nx, tc.ny, tc.nz, tc.tau)
				tc.configure(cpu)
				cpu.Init(1, tc.u0)
				dev := gpu.New(gpu.Config{TextureMemory: 256 << 20, Workers: workers})
				sim, err := New(dev, cpu)
				if err != nil {
					t.Fatal(err)
				}
				// The simulator keeps no reference to the lattice it
				// was built from: stepping one leaves the other alone.
				stepBoth(cpu, sim, steps)
				assertDistributionsEqual(t, cpu, sim)
				assertFieldsEqual(t, cpu, sim)
			})
		}
	}
}

// fuzzFaces are the face kinds FuzzGPUStepMatchesCPU draws from, in the
// order of its base-5 faces digits.
var fuzzFaces = [5]lbm.BC{lbm.Periodic, lbm.Wall, lbm.MovingWall, lbm.Inlet, lbm.Outflow}

// FuzzGPUStepMatchesCPU steps a random small lattice on both backends
// and requires all 19 distributions and the macro fields to agree bit
// for bit: extents 3 + n%8 per axis, face f the (faces/5^f)%5-th of
// fuzzFaces with a wall or inflow velocity drawn from seed, and in carry
// one bit each for a seeded solid mask, a body force and three fragment
// workers instead of one. testdata/fuzz holds the named seed corpus.
func FuzzGPUStepMatchesCPU(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(3), uint8(4), uint16(0), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, nx, ny, nz uint8, faces uint16, carry uint8) {
		rng := rand.New(rand.NewSource(int64(seed)))
		small := func() float32 { return 0.06 * (rng.Float32() - 0.5) }
		cpu := lbm.New(3+int(nx%8), 3+int(ny%8), 3+int(nz%8), 0.6+0.1*float32(seed%8))
		for face, code := 0, int(faces); face < lbm.NumFaces; face, code = face+1, code/5 {
			spec := lbm.FaceSpec{Type: fuzzFaces[code%5]}
			if spec.Type == lbm.MovingWall || spec.Type == lbm.Inlet {
				spec.U = vecmath.Vec3{small(), small(), small()}
			}
			if spec.Type == lbm.Inlet || spec.Type == lbm.Outflow {
				spec.Rho = 1 + small()
			}
			cpu.Faces[face] = spec
		}
		if carry&1 != 0 {
			for z := 0; z < cpu.NZ; z++ {
				for y := 0; y < cpu.NY; y++ {
					for x := 0; x < cpu.NX; x++ {
						cpu.SetSolid(x, y, z, rng.Intn(6) == 0)
					}
				}
			}
		}
		if carry&2 != 0 {
			cpu.Force = vecmath.Vec3{small() / 100, small() / 100, small() / 100}
		}
		workers := 1
		if carry&4 != 0 {
			workers = 3
		}
		cpu.Init(1, vecmath.Vec3{small(), small(), small()})
		sim, err := New(gpu.New(gpu.Config{TextureMemory: 64 << 20, Workers: workers}), cpu)
		if err != nil {
			t.Fatal(err)
		}
		stepBoth(cpu, sim, 3)
		assertDistributionsEqual(t, cpu, sim)
		assertFieldsEqual(t, cpu, sim)
	})
}

func TestStepSteadyStateZeroAlloc(t *testing.T) {
	for _, tc := range flowCases {
		if tc.nx*tc.ny >= 4096 {
			continue // fans out over goroutines, which allocate
		}
		_, sim := buildPair(t, tc.nx, tc.ny, tc.nz, tc.tau, tc.configure)
		sim.Step(noExchange)
		if allocs := testing.AllocsPerRun(5, func() { sim.Step(noExchange) }); allocs != 0 {
			t.Errorf("%s: Step allocates %v times, want 0", tc.name, allocs)
		}
	}
}

// TestBorderRoundTripZeroAlloc pins the exchange path's buffers: a face
// packed and its payload handed to the unpack of the same face, as a
// cluster step does, allocates nothing once it has gone round once. The
// three faces differ in size, and the read-back of each lands in the
// simulator's one scratch.
func TestBorderRoundTripZeroAlloc(t *testing.T) {
	_, sim := buildPair(t, 8, 6, 5, 0.8, func(l *lbm.Lattice) {})
	for dim := 0; dim < 3; dim++ {
		for _, dir := range []int{-1, +1} {
			round := func() { sim.UnpackGhost(dim, dir, sim.PackBorder(dim, dir)) }
			round()
			if allocs := testing.AllocsPerRun(5, round); allocs != 0 {
				t.Errorf("dim %d dir %+d: pack + unpack allocates %v times, want 0", dim, dir, allocs)
			}
		}
	}
}

func TestGPUStatsPerStep(t *testing.T) {
	// Inlet and outflow on x (thin rectangles per slice), walls on y,
	// periodic z (whole ghost layers). Passes and fragments are those of
	// the fused sweep this one replaced; its 178 copies gain one staging
	// copy of the interior per slice.
	const nx, ny, nz = 14, 10, 8
	_, sim := buildPair(t, nx, ny, nz, 0.8, func(l *lbm.Lattice) {
		l.Faces[lbm.FaceXNeg] = lbm.FaceSpec{Type: lbm.Inlet, U: vecmath.Vec3{0.04, 0, 0}}
		l.Faces[lbm.FaceXPos] = lbm.FaceSpec{Type: lbm.Outflow}
		l.Faces[lbm.FaceYNeg] = lbm.FaceSpec{Type: lbm.Wall}
		l.Faces[lbm.FaceYPos] = lbm.FaceSpec{Type: lbm.Wall}
	})
	sim.Step(noExchange)
	before := sim.Device().Stats
	sim.Step(noExchange)
	after := sim.Device().Stats
	got := gpu.Stats{
		Passes:        after.Passes - before.Passes,
		Fragments:     after.Fragments - before.Fragments,
		TextureCopies: after.TextureCopies - before.TextureCopies,
		CopiedTexels:  after.CopiedTexels - before.CopiedTexels,
	}
	want := gpu.Stats{
		Passes:        138,
		Fragments:     9440,
		TextureCopies: 178 + nz,
		CopiedTexels:  17120 + nz*nx*ny,
	}
	if got != want {
		t.Errorf("one step cost %+v, want %+v", got, want)
	}
}

// TestGPUUnpackChecksLengthFirst: like the CPU backend, a payload of the
// wrong length, short or long, is refused before anything crosses the bus.
func TestGPUUnpackChecksLengthFirst(t *testing.T) {
	_, sim := buildPair(t, 8, 6, 4, 0.8, func(l *lbm.Lattice) {
		l.Faces[lbm.FaceYPos] = lbm.FaceSpec{Type: lbm.Ghost}
	})
	down0 := sim.Device().Bus().Down.Ops
	for _, n := range []int{5*10*4 - 1, 5*10*4 + 1, 0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a y payload of %d floats was accepted, want exactly %d", n, 5*10*4)
				}
			}()
			sim.UnpackGhost(1, +1, make([]float32, n))
		}()
	}
	if got := sim.Device().Bus().Down.Ops - down0; got != 0 {
		t.Errorf("refused payloads cost %d downstream transfers", got)
	}
}
