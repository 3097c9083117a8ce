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

// statsCases are the configurations of the step-count golden: the
// lbm-gpu benchmark workload's tunnel (bench/lbm.go) on its 2x2x1
// ranks, and three more that between them fill every ghost-face kind
// and exchange on every axis.
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
}

// stepCost is what one rank's device and bus did in one step.
type stepCost struct {
	gpu      gpu.Stats
	up, down bus.Stats
}

func (c *stepCost) add(o stepCost) {
	c.gpu = gpu.Stats{
		Passes:        c.gpu.Passes + o.gpu.Passes,
		Fragments:     c.gpu.Fragments + o.gpu.Fragments,
		TextureCopies: c.gpu.TextureCopies + o.gpu.TextureCopies,
		CopiedTexels:  c.gpu.CopiedTexels + o.gpu.CopiedTexels,
		Allocations:   c.gpu.Allocations + o.gpu.Allocations,
	}
	c.up = bus.Stats{Ops: c.up.Ops + o.up.Ops, Bytes: c.up.Bytes + o.up.Bytes, Time: c.up.Time + o.up.Time}
	c.down = bus.Stats{Ops: c.down.Ops + o.down.Ops, Bytes: c.down.Bytes + o.down.Bytes, Time: c.down.Time + o.down.Time}
}

func (c stepCost) String() string {
	return fmt.Sprintf("gpu %+v up %+v down %+v", c.gpu, c.up, c.down)
}

// stepCosts runs cfg on simulated-GPU ranks for two steps and returns
// each rank's cost of the second, the steady state.
func stepCosts(t *testing.T, cfg cluster.Config) []stepCost {
	t.Helper()
	var devs []*gpu.Device
	cfg.NewNode = func(rank int, sub *lbm.Lattice) (cluster.Node, error) {
		dev := gpu.New(gpu.Config{TextureMemory: 256 << 20, Workers: 1})
		devs = append(devs, dev)
		return New(dev, sub)
	}
	sim, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(1)
	before := make([]stepCost, len(devs))
	for r, d := range devs {
		before[r] = stepCost{d.Stats, d.Bus().Up, d.Bus().Down}
	}
	sim.Run(1)
	out := make([]stepCost, len(devs))
	for r, d := range devs {
		b := before[r]
		out[r] = stepCost{
			gpu: gpu.Stats{
				Passes:        d.Stats.Passes - b.gpu.Passes,
				Fragments:     d.Stats.Fragments - b.gpu.Fragments,
				TextureCopies: d.Stats.TextureCopies - b.gpu.TextureCopies,
				CopiedTexels:  d.Stats.CopiedTexels - b.gpu.CopiedTexels,
				Allocations:   d.Stats.Allocations - b.gpu.Allocations,
			},
			up:   moved(d.Bus().Up, b.up),
			down: moved(d.Bus().Down, b.down),
		}
	}
	return out
}

// TestStepCountsGolden holds the exact device and bus counts of one
// steady-state step, per rank and summed, of each statsCases
// configuration to testdata/stats.txt: a change to the interpreter or
// to the pass layout that adds, drops or resizes a pass, a copy or a
// transfer shows as a changed line. REGEN_STATS=1 rewrites the file.
func TestStepCountsGolden(t *testing.T) {
	var lines []string
	for _, tc := range statsCases {
		var sum stepCost
		for r, c := range stepCosts(t, tc.cfg()) {
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
