package lbmgpu

import (
	"time"

	"gpucluster/internal/bus"
	"gpucluster/internal/cluster"
	"gpucluster/internal/gpu"
	"gpucluster/internal/lbm"
	"gpucluster/internal/sched"
)

// Transfer is what one rank's bus moved in one step, by direction: the
// read-back toward the host (Up) and the write-back toward the card
// (Down).
type Transfer struct {
	Up, Down bus.Stats
}

// Time is the step's simulated GPU↔CPU time, Table 1's column.
func (t Transfer) Time() time.Duration { return t.Up.Time + t.Down.Time }

// MeasureTransfer measures Table 1's GPU↔CPU column on the functional
// simulator: a lattice of sub-domains of extents sub on grid's ranks,
// each a simulated GPU on the paper's card (gpu.GeForceFX5800Ultra, AGP
// 8x), walls on every side, so a rank exchanges across its interior
// faces only. After one warm-up step it runs steps more and returns what
// rank 0's bus moved in each. At the paper's 80³ a step takes about a
// second of host time per rank.
func MeasureTransfer(grid sched.NodeGrid, sub [3]int, steps int) ([]Transfer, error) {
	cfg := cluster.Config{
		Global:  [3]int{sub[0] * grid.PX, sub[1] * grid.PY, sub[2] * grid.PZ},
		Grid:    grid,
		Tau:     0.8,
		Timeout: 5 * time.Minute,
	}
	for f := range cfg.Faces {
		cfg.Faces[f] = lbm.FaceSpec{Type: lbm.Wall}
	}
	var rank0 *bus.Bus
	cfg.NewNode = func(rank int, l *lbm.Lattice) (cluster.Node, error) {
		hw := gpu.GeForceFX5800Ultra()
		hw.Workers = 1 // the ranks already occupy the cores
		dev := gpu.New(hw)
		if rank == 0 {
			rank0 = dev.Bus()
		}
		return New(dev, l)
	}
	sim, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	sim.Run(1) // warm-up
	out := make([]Transfer, steps)
	for i := range out {
		up, down := rank0.Up, rank0.Down
		sim.Run(1)
		out[i] = Transfer{Up: moved(rank0.Up, up), Down: moved(rank0.Down, down)}
	}
	return out, nil
}

// moved is what a bus direction moved between two readings.
func moved(after, before bus.Stats) bus.Stats {
	return bus.Stats{Ops: after.Ops - before.Ops, Bytes: after.Bytes - before.Bytes, Time: after.Time - before.Time}
}
