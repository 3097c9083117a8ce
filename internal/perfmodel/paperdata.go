package perfmodel

// Reference measurements transcribed from the paper, used to validate
// the calibrated model's shape and to print paper-vs-model comparisons
// (cmd/paperbench). Times in milliseconds.

// PaperNodeCounts is the node-count column of Tables 1 and 2.
var PaperNodeCounts = []int{1, 2, 4, 8, 12, 16, 20, 24, 28, 30, 32}

// PaperTable1Row is one measured row of Table 1.
type PaperTable1Row struct {
	Nodes         int
	CPUTotalMS    float64
	GPUComputeMS  float64
	GPUCPUCommMS  float64
	NetNonOverMS  float64
	NetTotalMS    float64
	GPUTotalMS    float64
	SpeedupFactor float64
}

// PaperTable1 is Table 1 of the paper (per-step times, 80^3 per node).
var PaperTable1 = []PaperTable1Row{
	{1, 1420, 214, 0, 0, 0, 214, 6.64},
	{2, 1424, 216, 13, 0, 38, 229, 6.22},
	{4, 1430, 224, 42, 0, 47, 266, 5.38},
	{8, 1429, 222, 50, 0, 68, 272, 5.25},
	{12, 1431, 230, 50, 0, 80, 280, 5.11},
	{16, 1433, 235, 50, 0, 85, 285, 5.03},
	{20, 1436, 237, 50, 0, 87, 287, 5.00},
	{24, 1437, 238, 50, 0, 90, 288, 4.99},
	{28, 1439, 237, 50, 11, 131, 298, 4.83},
	{30, 1440, 237, 50, 25, 145, 312, 4.62},
	{32, 1440, 237, 49, 31, 151, 317, 4.54},
}

// PaperTable2Row is one measured row of Table 2.
type PaperTable2Row struct {
	Nodes       int
	CellsPerSec float64
	Speedup     float64
	Efficiency  float64
}

// PaperTable2 is Table 2 of the paper (throughput and efficiency).
var PaperTable2 = []PaperTable2Row{
	{1, 2.3e6, 1, 1},
	{2, 4.3e6, 1.87, 0.935},
	{4, 7.3e6, 3.17, 0.793},
	{8, 14.4e6, 6.26, 0.783},
	{12, 20.9e6, 9.09, 0.758},
	{16, 27.4e6, 11.91, 0.744},
	{20, 34.0e6, 14.78, 0.739},
	{24, 40.7e6, 17.70, 0.738},
	{28, 45.9e6, 19.96, 0.713},
	{30, 47.0e6, 20.43, 0.681},
	{32, 49.2e6, 21.39, 0.668},
}

// PaperStrongScalingLattice is the fixed global lattice of Section 4.4's
// strong-scaling paragraph.
var PaperStrongScalingLattice = [3]int{160, 160, 80}

// PaperStrongScalingRow is one GPU/CPU speed-up factor that paragraph
// reports.
type PaperStrongScalingRow struct {
	Nodes   int
	Speedup float64
}

// PaperStrongScaling is the strong-scaling paragraph of Section 4.4: the
// speed-up falls from 5.3 at 4 nodes to 2.4 at 16.
var PaperStrongScaling = []PaperStrongScalingRow{{4, 5.3}, {16, 2.4}}

// Economics of Section 3.
const (
	// PaperGPUPeakGFlops is the fragment-stage peak of one FX 5800 Ultra.
	PaperGPUPeakGFlops = 16
	// PaperCPUNodePeakGFlops is the dual-Xeon node peak.
	PaperCPUNodePeakGFlops = 10
	// PaperGPUPriceUSD is the April 2003 street price of the GPU.
	PaperGPUPriceUSD = 399
	// PaperNodes is the cluster size used for computation.
	PaperNodes = 32
	// PaperClusterCostUSD is the full cluster cost (excluding the
	// rendering-only hardware).
	PaperClusterCostUSD = 136000
)

// EconomicsRow summarizes the Section 3 cost/performance argument.
type EconomicsRow struct {
	AddedGFlops     float64 // peak GFlops added by the GPUs
	AddedCostUSD    float64
	MFlopsPerDollar float64
	TotalPeakGFlops float64 // CPU + GPU cluster peak
}

// Economics computes the paper's 41.1 MFlops/$ figure from first
// principles.
func Economics() EconomicsRow {
	added := float64(PaperGPUPeakGFlops * PaperNodes)
	cost := float64(PaperGPUPriceUSD * PaperNodes)
	return EconomicsRow{
		AddedGFlops:     added,
		AddedCostUSD:    cost,
		MFlopsPerDollar: added * 1000 / cost,
		TotalPeakGFlops: float64((PaperGPUPeakGFlops + PaperCPUNodePeakGFlops) * PaperNodes),
	}
}

// PaperMaxLattice is Section 4.2's texture-memory limit: 86 MB of
// usable texture memory capped a single GPU's lattice at 92^3.
const PaperMaxLattice = 92

// SingleGPURow captures the Section 4.2 single-GPU result: the GeForce
// FX 5900 Ultra ran the BGK LBM about 8x faster than a software version
// on a Pentium IV 2.53 GHz.
type SingleGPURow struct {
	GPUCellsPerSec float64
	CPUCellsPerSec float64
	Speedup        float64
}

// SingleGPU derives the single-GPU comparison from the hardware rates.
func (h Hardware) SingleGPU() SingleGPURow {
	return SingleGPURow{
		GPUCellsPerSec: h.GPUCellsPerSec,
		CPUCellsPerSec: h.CPUCellsPerSec,
		Speedup:        h.GPUCellsPerSec / h.CPUCellsPerSec,
	}
}
