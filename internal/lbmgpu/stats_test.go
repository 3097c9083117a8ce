package lbmgpu

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"gpucluster/internal/bus"
	"gpucluster/internal/cluster"
	"gpucluster/internal/gpu"
	"gpucluster/internal/lbm"
	"gpucluster/internal/sched"
	"gpucluster/internal/vecmath"
)

const statsGolden = "testdata/stats.txt"

// statsCases are the configurations of the step-count golden and of the
// priced plan's pin: the lbm-gpu benchmark workload's tunnel
// (bench/lbm.go) on its 2x2x1 ranks, and four more that between them
// fill every ghost-face kind and exchange on every axis.
var statsCases = []struct {
	name string
	cfg  func() cluster.Config
}{
	{"tunnel 2x2x1", func() cluster.Config {
		cfg := cluster.Config{Global: [3]int{32, 32, 16}, Grid: sched.NodeGrid{PX: 2, PY: 2, PZ: 1}, Tau: 0.8}
		cfg.Geometry = func(x, y, z int) bool { return x >= 12 && x < 20 && y >= 12 && y < 20 && z < 10 }
		cfg.Faces[lbm.FaceXNeg] = lbm.FaceSpec{Type: lbm.Inlet, U: vecmath.Vec3{0.04, 0, 0}}
		cfg.Faces[lbm.FaceXPos] = lbm.FaceSpec{Type: lbm.Outflow}
		for _, f := range []int{lbm.FaceYNeg, lbm.FaceYPos, lbm.FaceZNeg, lbm.FaceZPos} {
			cfg.Faces[f] = lbm.FaceSpec{Type: lbm.Wall}
		}
		return cfg
	}},
	{"walls 2x2x2", func() cluster.Config {
		cfg := cluster.Config{Global: [3]int{12, 10, 8}, Grid: sched.NodeGrid{PX: 2, PY: 2, PZ: 2}, Tau: 0.9}
		for f := range cfg.Faces {
			cfg.Faces[f] = lbm.FaceSpec{Type: lbm.Wall}
		}
		cfg.Faces[lbm.FaceYPos] = lbm.FaceSpec{Type: lbm.MovingWall, U: vecmath.Vec3{0.05, 0, 0}}
		return cfg
	}},
	{"periodic 1x1x1", func() cluster.Config {
		cfg := cluster.Config{Global: [3]int{12, 10, 8}, Grid: sched.NodeGrid{PX: 1, PY: 1, PZ: 1}, Tau: 0.8}
		cfg.Force = vecmath.Vec3{1e-4, 0, 0}
		return cfg // the zero FaceSpec is periodic
	}},
	{"inlet/outflow 2x1x1", func() cluster.Config {
		cfg := cluster.Config{Global: [3]int{16, 10, 8}, Grid: sched.NodeGrid{PX: 2, PY: 1, PZ: 1}, Tau: 0.8}
		cfg.Geometry = func(x, y, z int) bool { return x >= 6 && x < 9 && y >= 3 && y < 6 && z < 5 }
		cfg.Faces[lbm.FaceXNeg] = lbm.FaceSpec{Type: lbm.Inlet, U: vecmath.Vec3{0.04, 0, 0}}
		cfg.Faces[lbm.FaceXPos] = lbm.FaceSpec{Type: lbm.Outflow}
		cfg.Faces[lbm.FaceYNeg] = lbm.FaceSpec{Type: lbm.Wall}
		cfg.Faces[lbm.FaceYPos] = lbm.FaceSpec{Type: lbm.Wall}
		return cfg
	}},
	// Thin x rectangles per slice (the outflow face's a moments pass and
	// five stack passes), no y ghost fill, whole z layers: 146 passes,
	// 9,520 fragments, 186 + nz copies, 17,200 + nz·nx·ny texels copied.
	{"inlet/outflow 1x1x1", func() cluster.Config {
		cfg := cluster.Config{Global: [3]int{14, 10, 8}, Grid: sched.NodeGrid{PX: 1, PY: 1, PZ: 1}, Tau: 0.8}
		cfg.Faces[lbm.FaceXNeg] = lbm.FaceSpec{Type: lbm.Inlet, U: vecmath.Vec3{0.04, 0, 0}}
		cfg.Faces[lbm.FaceXPos] = lbm.FaceSpec{Type: lbm.Outflow}
		cfg.Faces[lbm.FaceYNeg] = lbm.FaceSpec{Type: lbm.Wall}
		cfg.Faces[lbm.FaceYPos] = lbm.FaceSpec{Type: lbm.Wall}
		return cfg
	}},
}

func (c *StepCost) add(o StepCost) {
	c.GPU = gpu.Stats{
		Passes:        c.GPU.Passes + o.GPU.Passes,
		Fragments:     c.GPU.Fragments + o.GPU.Fragments,
		TextureCopies: c.GPU.TextureCopies + o.GPU.TextureCopies,
		CopiedTexels:  c.GPU.CopiedTexels + o.GPU.CopiedTexels,
		Allocations:   c.GPU.Allocations + o.GPU.Allocations,
	}
	c.Up = bus.Stats{Ops: c.Up.Ops + o.Up.Ops, Bytes: c.Up.Bytes + o.Up.Bytes, Time: c.Up.Time + o.Up.Time}
	c.Down = bus.Stats{Ops: c.Down.Ops + o.Down.Ops, Bytes: c.Down.Bytes + o.Down.Bytes, Time: c.Down.Time + o.Down.Time}
}

func (c StepCost) String() string {
	return fmt.Sprintf("gpu %+v up %+v down %+v", c.GPU, c.Up, c.Down)
}

// moved is what a bus direction moved between two readings.
func moved(after, before bus.Stats) bus.Stats {
	return bus.Stats{Ops: after.Ops - before.Ops, Bytes: after.Bytes - before.Bytes, Time: after.Time - before.Time}
}

// stepCosts runs cfg on simulated-GPU ranks for two steps and returns
// each rank's cost of the second, the steady state, and its plan's
// price on the rank's bus.
func stepCosts(t *testing.T, cfg cluster.Config) (ran, priced []StepCost) {
	t.Helper()
	var devs []*gpu.Device
	var plans []*Plan
	cfg.NewNode = func(rank int, sub *lbm.Lattice) (cluster.Node, error) {
		dev := gpu.New(gpu.Config{TextureMemory: 256 << 20, Workers: 1})
		devs = append(devs, dev)
		plans = append(plans, NewPlan([3]int{sub.NX, sub.NY, sub.NZ}, sub.Faces))
		return New(dev, sub)
	}
	sim, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(1)
	before := make([]StepCost, len(devs))
	for r, d := range devs {
		before[r] = StepCost{d.Stats, d.Bus().Up, d.Bus().Down}
	}
	sim.Run(1)
	for r, d := range devs {
		b := before[r]
		ran = append(ran, StepCost{
			GPU: gpu.Stats{
				Passes:        d.Stats.Passes - b.GPU.Passes,
				Fragments:     d.Stats.Fragments - b.GPU.Fragments,
				TextureCopies: d.Stats.TextureCopies - b.GPU.TextureCopies,
				CopiedTexels:  d.Stats.CopiedTexels - b.GPU.CopiedTexels,
				Allocations:   d.Stats.Allocations - b.GPU.Allocations,
			},
			Up:   moved(d.Bus().Up, b.Up),
			Down: moved(d.Bus().Down, b.Down),
		})
		priced = append(priced, plans[r].Cost(d.Bus()))
	}
	return ran, priced
}

// TestStepCountsGolden holds the exact device and bus counts of one
// steady-state step, per rank and summed, of each statsCases
// configuration to testdata/stats.txt: a change to the interpreter or
// to the pass layout that adds, drops or resizes a pass, a copy or a
// transfer shows as a changed line. REGEN_STATS=1 rewrites the file.
func TestStepCountsGolden(t *testing.T) {
	var lines []string
	for _, tc := range statsCases {
		var sum StepCost
		ran, _ := stepCosts(t, tc.cfg())
		for r, c := range ran {
			lines = append(lines, fmt.Sprintf("%s rank %d: %v", tc.name, r, c))
			sum.add(c)
		}
		lines = append(lines, fmt.Sprintf("%s all: %v", tc.name, sum))
	}
	got := strings.Join(lines, "\n") + "\n"
	if os.Getenv("REGEN_STATS") != "" {
		if err := os.WriteFile(statsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(statsGolden)
	if err != nil {
		t.Fatalf("%v (run with REGEN_STATS=1 to generate)", err)
	}
	if got != string(want) {
		t.Errorf("step counts differ from %s (REGEN_STATS=1 rewrites it after an intentional change):\ngot:\n%swant:\n%s", statsGolden, got, want)
	}
}

// TestCostMatchesExecutedStep holds the priced plan to the executed one:
// for every rank of every statsCases set-up, Plan.Cost of the rank's
// extents and faces equals what its device and bus did in a steady-state
// step, passes to bus time, exactly.
func TestCostMatchesExecutedStep(t *testing.T) {
	for _, tc := range statsCases {
		ran, priced := stepCosts(t, tc.cfg())
		for r := range ran {
			if priced[r] != ran[r] {
				t.Errorf("%s rank %d: priced %v\nexecuted %v", tc.name, r, priced[r], ran[r])
			}
		}
	}
}

// TestGPUTunnelTrafficPerStep holds the lbm-gpu benchmark's exchange on
// simulated-GPU ranks: the tunnel of statsCases on 2x2x1 ranks of
// 16x16x16 sends one border a split dimension from each rank,
// 5*(16*16 + 18*16) = 2,720 floats, so 8 messages and 10,880 floats a
// step in all.
func TestGPUTunnelTrafficPerStep(t *testing.T) {
	cfg := statsCases[0].cfg()
	cfg.NewNode = func(rank int, sub *lbm.Lattice) (cluster.Node, error) {
		return New(gpu.New(gpu.Config{TextureMemory: 256 << 20, Workers: 1}), sub)
	}
	sim, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 2
	sim.Run(steps)
	var msgs, floats int64
	for _, st := range sim.MPIStats() {
		msgs += st.MessagesSent
		floats += st.FloatsSent
	}
	if msgs != 8*steps || floats != 10880*steps {
		t.Errorf("%d steps sent %d messages, %d floats; want %d and %d", steps, msgs, floats, 8*steps, 10880*steps)
	}
}
