package perfmodel

import (
	"fmt"
	"math"
	"time"

	"gpucluster/internal/sched"
)

// SyncMode selects the schedule synchronization strategy.
type SyncMode int

const (
	// SyncAuto uses the barrier up to Hardware.SyncThreshold nodes, the
	// paper's operating point.
	SyncAuto SyncMode = iota
	// SyncBarrier always synchronizes each schedule step.
	SyncBarrier
	// SyncNone never synchronizes (nodes drift and interrupt).
	SyncNone
)

// Options refine a cluster-step evaluation.
type Options struct {
	// Pattern selects indirect (paper) or direct diagonal exchange.
	Pattern sched.Pattern
	// Sync selects the schedule synchronization mode.
	Sync SyncMode
}

// StepBreakdown is one row of Table 1: the composed per-step times for a
// node-count/sub-domain configuration.
type StepBreakdown struct {
	Nodes     int
	Grid      sched.NodeGrid
	SubDomain [3]int

	CPUTotal time.Duration // CPU cluster per-step time (compute only; its network is overlapped by the second CPU)

	GPUCompute    time.Duration // GPU computation incl. boundary passes
	GPUCPUComm    time.Duration // border gather + AGP read-back + write
	NetTotal      time.Duration // full network communication time
	NetNonOverlap time.Duration // part not hidden by inner-cell collision
	GPUTotal      time.Duration // compute + GPU/CPU comm + non-overlap

	Speedup float64 // CPUTotal / GPUTotal
}

// subCells returns the cell count of a sub-domain.
func subCells(sub [3]int) float64 { return float64(sub[0]) * float64(sub[1]) * float64(sub[2]) }

// borderFloats returns the float count of one border message along dim
// for a sub-domain, matching lbm.Lattice.BorderLen.
func borderFloats(sub [3]int, dim int) int {
	switch dim {
	case 0:
		return 5 * sub[1] * sub[2]
	case 1:
		return 5 * (sub[0] + 2) * sub[2]
	default:
		return 5 * (sub[0] + 2) * (sub[1] + 2)
	}
}

// stepBytes returns the message size of a schedule step along axis: axial
// steps carry the 5-distribution border; diagonal steps (Direct pattern)
// carry only the thin edge column along the axis' zero component.
func stepBytes(axis, sub [3]int) int64 {
	zero, last, nonzero := 0, 0, 0
	for d, a := range axis {
		if a == 0 {
			zero = d
		} else {
			last = d
			nonzero++
		}
	}
	if nonzero > 1 {
		return int64(sub[zero] * 4)
	}
	return int64(borderFloats(sub, last) * 4)
}

// avgNeighbors returns the mean axial neighbor count over the grid: along
// a dimension of extent P each of the n/P lines of ranks holds P-1
// adjacencies, and each adjacency is a neighbor to both its ends.
func avgNeighbors(g sched.NodeGrid) float64 {
	n := g.Size()
	if n <= 0 {
		return 0
	}
	total := 0
	for _, extent := range [3]int{g.PX, g.PY, g.PZ} {
		total += 2 * (extent - 1) * (n / extent)
	}
	return float64(total) / float64(n)
}

// cpuStep returns the CPU cluster per-step time. Network time is fully
// overlapped by the second CPU of each node (the paper's implementation),
// so only compute plus a slight per-node boundary-evaluation overhead
// remains.
func (h Hardware) cpuStep(nodes int, sub [3]int) time.Duration {
	compute := time.Duration(subCells(sub) / h.CPUCellsPerSec * float64(time.Second))
	return compute + time.Duration(nodes)*h.CPUPerNodeOverhead
}

// gpuCompute returns the GPU computation time including the extra
// boundary-gather render passes that grow with the number of faces.
func (h Hardware) gpuCompute(g sched.NodeGrid, sub [3]int) time.Duration {
	base := time.Duration(subCells(sub) / h.GPUCellsPerSec * float64(time.Second))
	return base + time.Duration(avgNeighbors(g)*float64(h.GPUPerFaceOverhead))
}

// gpuCPUComm returns the per-step cost of moving border data between GPU
// and host across the bus: per face one gather pass, one upstream read
// and one downstream write, plus a pipeline-flush penalty when multiple
// faces are exchanged.
func (h Hardware) gpuCPUComm(g sched.NodeGrid, sub [3]int) time.Duration {
	faces := avgNeighbors(g)
	if faces == 0 {
		return 0
	}
	// Mean face payload across the dimensions actually split.
	var bytes float64
	var dims int
	if g.PX > 1 {
		bytes += float64(borderFloats(sub, 0) * 4)
		dims++
	}
	if g.PY > 1 {
		bytes += float64(borderFloats(sub, 1) * 4)
		dims++
	}
	if g.PZ > 1 {
		bytes += float64(borderFloats(sub, 2) * 4)
		dims++
	}
	if dims > 0 {
		bytes /= float64(dims)
	}
	b := *h.Bus // copy: cost model only, keep stats clean
	perFace := h.FaceGatherCost + b.Upload(int64(bytes)) + b.Download(int64(bytes))
	total := time.Duration(faces * float64(perFace))
	if faces > 1.5 {
		total += h.MultiFacePenalty
	}
	return total
}

// netTime returns the full per-step network communication time for the
// schedule over the switch, including setup, congestion, trunk sharing
// and synchronization costs.
//
// The schedule is never built. Every node enters every schedule step
// together (the model hands the switch no skew between nodes), so the
// steps do not interact and the network time is a sum of independent
// per-step columns, as in the paper's Table 1. All pairs of a step carry
// the same message, so the step lasts as long as its slowest exchange:
// one that crosses the stacking trunk, if any does, at the trunk rate
// divided by the number of crossing pairs (netsim.Config.ExchangeTime).
// A step therefore contributes through two integers only, both closed
// forms of the grid: its pair count, and its count of pairs with exactly
// one rank behind the trunk (sched.StepSpec.Pairs, Straddling). The
// differential test in model_test.go holds this equal, bit for bit, to
// walking sched.Build through netsim.Network.StepTimes.
func (h Hardware) netTime(g sched.NodeGrid, sub [3]int, opt Options) time.Duration {
	n := g.Size()
	if n <= 1 {
		return 0
	}
	total := h.NetBase
	pairsTotal := 0
	for _, st := range sched.Specs(opt.Pattern) {
		pairs := st.Pairs(g)
		if pairs == 0 {
			continue
		}
		crossing := st.Straddling(g, h.Net.NonBlockingPorts)
		total += h.NetPerStep + h.Net.ExchangeTime(stepBytes(st.Axis, sub), crossing)
		pairsTotal += pairs
	}
	// Switch load: concurrent flows contend for shared forwarding
	// resources, saturating once the backplane pipelines fill.
	cong := pairsTotal
	if cong > h.CongestionSaturation {
		cong = h.CongestionSaturation
	}
	total += time.Duration(cong) * h.CongestionPerPair

	// Synchronization: barrier (cost linear in n) or free-running drift
	// (interruptions saturating with n).
	barrier := time.Duration(n) * h.BarrierPerNode
	drift := time.Duration(float64(h.DriftMax) * (1 - math.Exp(-float64(n)/h.DriftScale)))
	switch opt.Sync {
	case SyncBarrier:
		total += barrier
	case SyncNone:
		total += drift
	default:
		if n <= h.SyncThreshold {
			total += barrier
		} else {
			total += drift
		}
	}
	return total
}

// overlapWindow returns how much network time the inner-cell collision
// hides (the paper's ~120 ms for an 80^3 sub-domain).
func (h Hardware) overlapWindow(g sched.NodeGrid, sub [3]int) time.Duration {
	return time.Duration(h.OverlapFraction * float64(h.gpuCompute(g, sub)))
}

// ClusterStep composes the full per-step breakdown for a grid of nodes
// each computing the given sub-domain.
func (h Hardware) ClusterStep(g sched.NodeGrid, sub [3]int, opt Options) StepBreakdown {
	n := g.Size()
	br := StepBreakdown{
		Nodes:     n,
		Grid:      g,
		SubDomain: sub,
		CPUTotal:  h.cpuStep(n, sub),
	}
	br.GPUCompute = h.gpuCompute(g, sub)
	br.GPUCPUComm = h.gpuCPUComm(g, sub)
	br.NetTotal = h.netTime(g, sub, opt)
	window := h.overlapWindow(g, sub)
	if br.NetTotal > window {
		br.NetNonOverlap = br.NetTotal - window
	}
	br.GPUTotal = br.GPUCompute + br.GPUCPUComm + br.NetNonOverlap
	br.Speedup = float64(br.CPUTotal) / float64(br.GPUTotal)
	return br
}

// FixedSubDomainSweep evaluates ClusterStep for the paper's node counts
// with a fixed per-node sub-domain (the Table 1 experiment: each node
// computes 80^3; more nodes = bigger problem).
func (h Hardware) FixedSubDomainSweep(nodeCounts []int, sub [3]int) []StepBreakdown {
	out := make([]StepBreakdown, 0, len(nodeCounts))
	for _, n := range nodeCounts {
		g := sched.Arrange2D(n)
		out = append(out, h.ClusterStep(g, sub, Options{}))
	}
	return out
}

// StrongScaling evaluates a fixed global lattice split over increasing
// node counts (the Section 4.4 closing experiment: 160x160x80 from 4
// nodes up).
func (h Hardware) StrongScaling(global [3]int, nodeCounts []int) ([]StepBreakdown, error) {
	out := make([]StepBreakdown, 0, len(nodeCounts))
	for _, n := range nodeCounts {
		g := sched.Arrange2D(n)
		if global[0]%g.PX != 0 || global[1]%g.PY != 0 {
			return nil, fmt.Errorf("perfmodel: %v does not divide %v evenly", g, global)
		}
		sub := [3]int{global[0] / g.PX, global[1] / g.PY, global[2]}
		out = append(out, h.ClusterStep(g, sub, Options{}))
	}
	return out, nil
}

// ThroughputRow is one row of Table 2.
type ThroughputRow struct {
	Nodes       int
	CellsPerSec float64
	Speedup     float64 // vs the single-node rate
	Efficiency  float64 // Speedup / Nodes
}

// Throughput derives Table 2 from Table 1 breakdowns: total cells
// computed per second, scaling speedup and efficiency.
func Throughput(rows []StepBreakdown) []ThroughputRow {
	out := make([]ThroughputRow, len(rows))
	var base float64
	for i, r := range rows {
		cells := subCells(r.SubDomain) * float64(r.Nodes)
		rate := cells / r.GPUTotal.Seconds()
		out[i] = ThroughputRow{Nodes: r.Nodes, CellsPerSec: rate}
		if i == 0 {
			base = rate / float64(r.Nodes)
			out[i].Speedup = float64(r.Nodes)
			out[i].Efficiency = 1
		} else {
			out[i].Speedup = rate / base
			out[i].Efficiency = rate / base / float64(r.Nodes)
		}
	}
	return out
}
