package perfmodel

import (
	"gpucluster/internal/bus"
	"gpucluster/internal/sched"
)

// AblationRow pairs a baseline breakdown with a variant for one node
// count, for the design-choice ablations A1-A4 that paperbench prints
// (this package is the calibration layer of docs/ARCHITECTURE.md).
type AblationRow struct {
	Nodes    int
	Baseline StepBreakdown
	Variant  StepBreakdown
}

// AblationDiagonal compares the paper's indirect diagonal routing
// (baseline) against direct second-nearest-neighbor exchange (variant)
// — experiment A1. The direct pattern needs up to twice the schedule
// steps; the paper argues the simplified pattern wins despite slightly
// larger axial packets.
func (h Hardware) AblationDiagonal(nodeCounts []int, sub [3]int) []AblationRow {
	out := make([]AblationRow, 0, len(nodeCounts))
	for _, n := range nodeCounts {
		g := sched.Arrange2D(n)
		out = append(out, AblationRow{
			Nodes:    n,
			Baseline: h.ClusterStep(g, sub, Options{Pattern: sched.Indirect}),
			Variant:  h.ClusterStep(g, sub, Options{Pattern: sched.Direct}),
		})
	}
	return out
}

// AblationBarrier compares barrier-synchronized schedules (baseline)
// against free-running ones (variant) — experiment A2. The paper found
// the barrier pays off below 16 nodes and hurts above.
func (h Hardware) AblationBarrier(nodeCounts []int, sub [3]int) []AblationRow {
	out := make([]AblationRow, 0, len(nodeCounts))
	for _, n := range nodeCounts {
		g := sched.Arrange2D(n)
		out = append(out, AblationRow{
			Nodes:    n,
			Baseline: h.ClusterStep(g, sub, Options{Sync: SyncBarrier}),
			Variant:  h.ClusterStep(g, sub, Options{Sync: SyncNone}),
		})
	}
	return out
}

// AblationPCIe compares AGP 8x (baseline) against the x16 PCI-Express
// bus the paper anticipates (variant) — experiment A4.
func (h Hardware) AblationPCIe(nodeCounts []int, sub [3]int) []AblationRow {
	pcie := h.WithBus(bus.PCIe16x())
	out := make([]AblationRow, 0, len(nodeCounts))
	for _, n := range nodeCounts {
		g := sched.Arrange2D(n)
		out = append(out, AblationRow{
			Nodes:    n,
			Baseline: h.ClusterStep(g, sub, Options{}),
			Variant:  pcie.ClusterStep(g, sub, Options{}),
		})
	}
	return out
}

// ShapeRow compares sub-domain shapes of equal volume — experiment A3.
// Section 4.3: "make the shape of each sub-domain as close as possible
// to a cube, since for block shapes the cube has the smallest ratio
// between boundary surface area and volume".
type ShapeRow struct {
	Label     string
	SubDomain [3]int
	Breakdown StepBreakdown
}

// AblationShape evaluates a cube and two progressively flatter slabs of
// the same cell count on a 3D node arrangement (with a 2D decomposition
// the unsplit dimension is never exchanged, so the claim only holds for
// 3D splits).
func (h Hardware) AblationShape(n int) []ShapeRow {
	g := sched.Arrange3D(n)
	shapes := []ShapeRow{
		{Label: "cube 80x80x80", SubDomain: [3]int{80, 80, 80}},
		{Label: "slab 160x80x40", SubDomain: [3]int{160, 80, 40}},
		{Label: "slab 320x80x20", SubDomain: [3]int{320, 80, 20}},
	}
	for i := range shapes {
		shapes[i].Breakdown = h.ClusterStep(g, shapes[i].SubDomain, Options{})
	}
	return shapes
}
