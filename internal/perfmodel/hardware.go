// Package perfmodel composes per-step execution times for the CPU and
// GPU clusters of Section 4.4 from a mechanistic hardware model: compute
// rates measured in the paper, the asymmetric AGP bus (package bus), the
// switched Gigabit network with its pairwise schedule (packages netsim
// and sched), the ~120 ms inner-cell collision window that hides network
// time, and the barrier-vs-drift synchronization tradeoff the paper
// reports around 16 nodes.
//
// The absolute constants are calibrated once against Table 1; everything
// else — the strong-scaling sweep, the ablations, the PCI-Express
// projection — is a prediction of the composed model, not a table lookup.
// cmd/paperbench prints modeled-vs-paper values for every row.
package perfmodel

import (
	"time"

	"gpucluster/internal/bus"
	"gpucluster/internal/netsim"
)

// Hardware aggregates the platform parameters of the model.
type Hardware struct {
	// GPUCellsPerSec is the single-GPU LBM update rate (cells/second).
	// The paper measures an 80^3 sub-domain in 214 ms: 2.393e6 cells/s
	// on the GeForce FX 5800 Ultra.
	GPUCellsPerSec float64
	// CPUCellsPerSec is the single-CPU (one thread, no SSE) rate:
	// 80^3 cells in 1420 ms = 3.606e5 cells/s on the Xeon 2.4 GHz.
	CPUCellsPerSec float64
	// CPUPerNodeOverhead models the slight growth of the CPU cluster's
	// compute column with node count (boundary evaluation imbalance).
	CPUPerNodeOverhead time.Duration
	// GPUPerFaceOverhead models the extra render-pass work per exchanged
	// face that grows the GPU computation column from 214 to ~237 ms.
	GPUPerFaceOverhead time.Duration

	// Bus is the host<->GPU transfer model (AGP 8x in the paper).
	Bus *bus.Bus
	// FaceGatherCost is the fixed per-face cost of the border gather
	// pass plus read initialization, on top of the bus transfer times.
	FaceGatherCost time.Duration
	// MultiFacePenalty is a one-time pipeline-flush cost paid when a
	// node exchanges two or more faces per step.
	MultiFacePenalty time.Duration

	// Net configures the switch model; Ports is set per experiment.
	Net netsim.Config
	// NetBase is the fixed per-simulation-step network cost (MPI
	// progression, socket overhead) independent of the schedule.
	NetBase time.Duration
	// NetPerStep is the per-schedule-step setup cost.
	NetPerStep time.Duration
	// CongestionPerPair is the switch-load cost per concurrently active
	// node pair, saturating at CongestionSaturation pairs.
	CongestionPerPair    time.Duration
	CongestionSaturation int

	// BarrierPerNode is the per-node cost of an MPI_Barrier-synchronized
	// schedule (linear in node count).
	BarrierPerNode time.Duration
	// DriftMax is the saturating cost of running unsynchronized: nodes
	// drift apart and interrupt each other, with penalty
	// DriftMax * (1 - exp(-n/DriftScale)).
	DriftMax   time.Duration
	DriftScale float64
	// SyncThreshold is the node count up to which the barrier is used
	// (the paper found 16).
	SyncThreshold int

	// OverlapFraction is the share of GPU compute time (the inner-cell
	// collision) that can hide network communication: 120 ms of 214 ms.
	OverlapFraction float64
}

// Paper returns the hardware model calibrated to the paper's cluster:
// GeForce FX 5800 Ultra GPUs on AGP 8x, dual-Xeon nodes (one thread
// used), and a 1 Gigabit switched network, stacked beyond 24 ports.
func Paper() Hardware {
	return Hardware{
		GPUCellsPerSec:     512000.0 / 0.214, // 80^3 in 214 ms
		CPUCellsPerSec:     512000.0 / 1.420, // 80^3 in 1420 ms
		CPUPerNodeOverhead: 650 * time.Microsecond,
		GPUPerFaceOverhead: 7 * time.Millisecond,

		Bus:              bus.AGP8x(),
		FaceGatherCost:   9 * time.Millisecond,
		MultiFacePenalty: 21 * time.Millisecond,

		Net:                  netsim.GigabitSwitch(32),
		NetBase:              29 * time.Millisecond,
		NetPerStep:           7 * time.Millisecond,
		CongestionPerPair:    1100 * time.Microsecond,
		CongestionSaturation: 12,

		BarrierPerNode: 430 * time.Microsecond,
		DriftMax:       8 * time.Millisecond,
		DriftScale:     8,
		SyncThreshold:  16,

		OverlapFraction: 120.0 / 214.0,
	}
}

// WithBus returns a copy of h using a different host<->GPU bus (the
// PCI-Express ablation).
func (h Hardware) WithBus(b *bus.Bus) Hardware {
	h.Bus = b
	return h
}
