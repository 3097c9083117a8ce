package perfmodel

import (
	"math"
	"testing"
	"time"

	"gpucluster/internal/netsim"
	"gpucluster/internal/sched"
)

var sub80 = [3]int{80, 80, 80}

func relErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Abs(want)
}

func TestSingleNodeMatchesPaper(t *testing.T) {
	h := Paper()
	r := h.ClusterStep(sched.NodeGrid{PX: 1, PY: 1, PZ: 1}, sub80, Options{})
	if got := r.GPUTotal.Milliseconds(); got != 214 {
		t.Errorf("single-node GPU step = %dms, want 214", got)
	}
	if got := r.CPUTotal.Milliseconds(); relErr(float64(got), 1420) > 0.01 {
		t.Errorf("single-node CPU step = %dms, want ~1420", got)
	}
	if relErr(r.Speedup, 6.64) > 0.01 {
		t.Errorf("single-node speedup = %.2f, want 6.64", r.Speedup)
	}
	if r.GPUCPUComm != 0 || r.NetTotal != 0 {
		t.Errorf("single node should have no communication: %+v", r)
	}
}

func TestTable1ShapeMatchesPaper(t *testing.T) {
	h := Paper()
	rows := h.FixedSubDomainSweep(PaperNodeCounts, sub80)
	if len(rows) != len(PaperTable1) {
		t.Fatalf("row count %d != %d", len(rows), len(PaperTable1))
	}
	for i, r := range rows {
		p := PaperTable1[i]
		if r.Nodes != p.Nodes {
			t.Fatalf("row %d: nodes %d != %d", i, r.Nodes, p.Nodes)
		}
		// Totals within 10% of the measured values.
		if relErr(float64(r.GPUTotal.Milliseconds()), p.GPUTotalMS) > 0.10 {
			t.Errorf("nodes %d: GPU total %dms vs paper %.0fms",
				r.Nodes, r.GPUTotal.Milliseconds(), p.GPUTotalMS)
		}
		if relErr(float64(r.CPUTotal.Milliseconds()), p.CPUTotalMS) > 0.05 {
			t.Errorf("nodes %d: CPU total %dms vs paper %.0fms",
				r.Nodes, r.CPUTotal.Milliseconds(), p.CPUTotalMS)
		}
		if relErr(r.Speedup, p.SpeedupFactor) > 0.10 {
			t.Errorf("nodes %d: speedup %.2f vs paper %.2f", r.Nodes, r.Speedup, p.SpeedupFactor)
		}
		// The overlap structure: network fully hidden through 24 nodes,
		// visible from 28 on.
		if p.NetNonOverMS == 0 && r.NetNonOverlap != 0 {
			t.Errorf("nodes %d: non-overlap %v, paper had none", r.Nodes, r.NetNonOverlap)
		}
		if p.NetNonOverMS > 0 && r.NetNonOverlap == 0 {
			t.Errorf("nodes %d: model hides all network time, paper had %.0fms exposed",
				r.Nodes, p.NetNonOverMS)
		}
	}
}

func TestSpeedupCurveShape(t *testing.T) {
	// Figure 9: the speedup starts at 6.64, flattens near 5, and drops
	// past 28 nodes; it must be monotone non-increasing.
	h := Paper()
	rows := h.FixedSubDomainSweep(PaperNodeCounts, sub80)
	for i := 1; i < len(rows); i++ {
		if rows[i].Speedup > rows[i-1].Speedup+1e-9 {
			t.Errorf("speedup increased from %d to %d nodes: %.3f -> %.3f",
				rows[i-1].Nodes, rows[i].Nodes, rows[i-1].Speedup, rows[i].Speedup)
		}
	}
	// Plateau: 12..24 nodes within a narrow band around 5.
	for _, r := range rows {
		if r.Nodes >= 12 && r.Nodes <= 24 {
			if r.Speedup < 4.6 || r.Speedup > 5.4 {
				t.Errorf("plateau speedup at %d nodes = %.2f, want ~5", r.Nodes, r.Speedup)
			}
		}
	}
	// The headline: above 4.5 overall at 30 nodes, per the abstract's
	// "4.6 times faster".
	if s := rows[len(rows)-2].Speedup; s < 4.3 || s > 5.0 {
		t.Errorf("30-node speedup = %.2f, want ~4.6", s)
	}
}

func TestHeadline30NodeStepTime(t *testing.T) {
	// Section 5: 480x400x80 on 30 nodes ran at 0.31 s/step (each node
	// computing an 80^3 sub-domain).
	h := Paper()
	r := h.ClusterStep(sched.Arrange2D(30), sub80, Options{})
	ms := float64(r.GPUTotal.Milliseconds())
	if ms < 290 || ms < 280 || ms > 330 {
		t.Errorf("30-node step = %.0fms, want ~310 (0.31 s/step)", ms)
	}
}

func TestNetworkKneeAt28Nodes(t *testing.T) {
	// Figure 8: network time is flat through 24 nodes and jumps once the
	// stacked trunk is involved.
	h := Paper()
	rows := h.FixedSubDomainSweep(PaperNodeCounts, sub80)
	byNodes := map[int]StepBreakdown{}
	for _, r := range rows {
		byNodes[r.Nodes] = r
	}
	flatLo := byNodes[12].NetTotal
	flatHi := byNodes[24].NetTotal
	if relErr(float64(flatHi), float64(flatLo)) > 0.15 {
		t.Errorf("network time not flat 12..24: %v vs %v", flatLo, flatHi)
	}
	if k := float64(byNodes[28].NetTotal) / float64(flatHi); k < 1.3 {
		t.Errorf("no knee at 28 nodes: ratio %.2f", k)
	}
	if byNodes[32].NetTotal <= byNodes[28].NetTotal {
		t.Errorf("network time must keep rising past the knee")
	}
}

func TestTable2Throughput(t *testing.T) {
	h := Paper()
	rows := Throughput(h.FixedSubDomainSweep(PaperNodeCounts, sub80))
	for i, r := range rows {
		p := PaperTable2[i]
		if relErr(r.CellsPerSec, p.CellsPerSec) > 0.12 {
			t.Errorf("nodes %d: %.1fM cells/s vs paper %.1fM",
				r.Nodes, r.CellsPerSec/1e6, p.CellsPerSec/1e6)
		}
		if i > 0 && relErr(r.Efficiency, p.Efficiency) > 0.12 {
			t.Errorf("nodes %d: efficiency %.2f vs paper %.2f", r.Nodes, r.Efficiency, p.Efficiency)
		}
	}
	// Figure 10: efficiency decreases monotonically.
	for i := 2; i < len(rows); i++ {
		if rows[i].Efficiency > rows[i-1].Efficiency+1e-9 {
			t.Errorf("efficiency increased at %d nodes", rows[i].Nodes)
		}
	}
}

func TestStrongScalingDegrades(t *testing.T) {
	// Section 4.4: fixed 160x160x80 lattice; from 4 to 16 nodes the
	// speedup factor drops from 5.3 to 2.4.
	h := Paper()
	rows, err := h.StrongScaling([3]int{160, 160, 80}, []int{4, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	if s := rows[0].Speedup; s < 4.9 || s > 5.7 {
		t.Errorf("4-node strong-scaling speedup = %.2f, want ~5.3", s)
	}
	if s := rows[2].Speedup; s < 1.9 || s > 3.0 {
		t.Errorf("16-node strong-scaling speedup = %.2f, want ~2.4", s)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Speedup >= rows[i-1].Speedup {
			t.Errorf("strong-scaling speedup must fall with more nodes")
		}
	}
}

func TestStrongScalingRejectsUnevenSplit(t *testing.T) {
	h := Paper()
	if _, err := h.StrongScaling([3]int{150, 160, 80}, []int{8}); err == nil {
		t.Error("uneven split should error")
	}
}

func TestAblationDiagonalIndirectWins(t *testing.T) {
	// A1: direct diagonal exchange needs more schedule steps and more
	// messages; the paper's indirect pattern must model faster for 2D
	// arrangements.
	h := Paper()
	for _, row := range h.AblationDiagonal([]int{4, 16, 32}, sub80) {
		if row.Variant.NetTotal <= row.Baseline.NetTotal {
			t.Errorf("nodes %d: direct (%v) should exceed indirect (%v)",
				row.Nodes, row.Variant.NetTotal, row.Baseline.NetTotal)
		}
	}
}

func TestAblationBarrierCrossover(t *testing.T) {
	// A2: barrier synchronization wins below ~16 nodes and loses above.
	h := Paper()
	rows := h.AblationBarrier([]int{2, 4, 8, 24, 32}, sub80)
	for _, row := range rows {
		barrier, free := row.Baseline.NetTotal, row.Variant.NetTotal
		if row.Nodes < 16 && barrier >= free {
			t.Errorf("nodes %d: barrier (%v) should beat free-running (%v)",
				row.Nodes, barrier, free)
		}
		if row.Nodes > 16 && barrier <= free {
			t.Errorf("nodes %d: free-running (%v) should beat barrier (%v)",
				row.Nodes, free, barrier)
		}
	}
}

func TestAblationPCIe(t *testing.T) {
	// A4: PCI-Express slashes the GPU<->CPU term (the paper's
	// enhancement (2)); totals improve accordingly.
	h := Paper()
	for _, row := range h.AblationPCIe([]int{4, 16, 30}, sub80) {
		if row.Variant.GPUCPUComm >= row.Baseline.GPUCPUComm {
			t.Errorf("nodes %d: PCIe comm %v should beat AGP %v",
				row.Nodes, row.Variant.GPUCPUComm, row.Baseline.GPUCPUComm)
		}
		if row.Variant.GPUTotal >= row.Baseline.GPUTotal {
			t.Errorf("nodes %d: PCIe total should improve", row.Nodes)
		}
	}
}

func TestAblationShapeCubeWins(t *testing.T) {
	// A3: flatter slabs of the same volume exchange more border data and
	// must model slower (3D decomposition).
	h := Paper()
	rows := h.AblationShape(8)
	for i := 1; i < len(rows); i++ {
		if rows[i].Breakdown.GPUTotal <= rows[i-1].Breakdown.GPUTotal {
			t.Errorf("%s (%v) should be slower than %s (%v)",
				rows[i].Label, rows[i].Breakdown.GPUTotal,
				rows[i-1].Label, rows[i-1].Breakdown.GPUTotal)
		}
	}
}

func TestEconomics(t *testing.T) {
	e := Economics()
	if e.AddedGFlops != 512 {
		t.Errorf("added GFlops = %v, want 512", e.AddedGFlops)
	}
	if e.AddedCostUSD != 12768 {
		t.Errorf("added cost = %v, want 12768", e.AddedCostUSD)
	}
	if math.Abs(e.MFlopsPerDollar-40.1) > 1.5 { // paper rounds to 41.1
		t.Errorf("MFlops/$ = %.1f, want ~40-41", e.MFlopsPerDollar)
	}
	if e.TotalPeakGFlops != 832 {
		t.Errorf("total peak = %v, want 832", e.TotalPeakGFlops)
	}
}

func TestSingleGPURow(t *testing.T) {
	h := Paper()
	r := h.SingleGPU()
	if r.Speedup < 6 || r.Speedup > 7 {
		t.Errorf("single GPU vs CPU speedup = %.2f, want ~6.6", r.Speedup)
	}
	if r.MaxLattice != 92 {
		t.Errorf("max lattice = %d", r.MaxLattice)
	}
}

func TestOverlapWindowIs120ms(t *testing.T) {
	h := Paper()
	w := h.overlapWindow(sched.NodeGrid{PX: 1, PY: 1, PZ: 1}, sub80)
	if w < 115*time.Millisecond || w > 125*time.Millisecond {
		t.Errorf("overlap window = %v, want ~120ms", w)
	}
}

// netTimeWalk is the schedule walk netTime's closed form replaced, kept
// as its oracle: build the Fig. 7 schedule, hand every step to a fresh
// switch model with all nodes ready at once, and add up the steps.
func (h Hardware) netTimeWalk(g sched.NodeGrid, sub [3]int, opt Options) time.Duration {
	n := g.Size()
	if n <= 1 {
		return 0
	}
	netCfg := h.Net
	netCfg.Ports = n
	net := netsim.New(netCfg)

	total := h.NetBase
	pairsTotal := 0
	for _, st := range sched.Build(g, opt.Pattern) {
		total += h.NetPerStep
		exs := make([]netsim.Exchange, 0, len(st.Pairs))
		for _, p := range st.Pairs {
			exs = append(exs, netsim.Exchange{A: p.A, B: p.B, Bytes: stepBytes(st.Axis, sub)})
		}
		total += netsim.MaxTime(net.StepTimes(exs, make([]time.Duration, n)))
		pairsTotal += len(st.Pairs)
	}
	cong := pairsTotal
	if cong > h.CongestionSaturation {
		cong = h.CongestionSaturation
	}
	total += time.Duration(cong) * h.CongestionPerPair

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

// checkNetTime compares the closed form with the walk for one grid under
// every pattern and synchronization mode.
func checkNetTime(t *testing.T, h Hardware, g sched.NodeGrid, sub [3]int) {
	t.Helper()
	for _, pat := range []sched.Pattern{sched.Indirect, sched.Direct} {
		for _, sync := range []SyncMode{SyncAuto, SyncBarrier, SyncNone} {
			opt := Options{Pattern: pat, Sync: sync}
			if got, want := h.netTime(g, sub, opt), h.netTimeWalk(g, sub, opt); got != want {
				t.Fatalf("grid %v sub %v %+v net %+v: closed form %d ns, schedule walk %d ns",
					g, sub, opt, h.Net, got, want)
			}
		}
	}
}

func TestNetTimeClosedFormMatchesScheduleWalk(t *testing.T) {
	h := Paper()
	var grids []sched.NodeGrid
	for n := 1; n <= 400; n++ {
		grids = append(grids, sched.Arrange2D(n), sched.Arrange3D(n))
	}
	for _, n := range []int{997, 1000, 2500, 4096, 7919, 10000} {
		grids = append(grids, sched.Arrange2D(n), sched.Arrange3D(n))
	}
	for px := 1; px <= 7; px++ {
		for py := 1; py <= 7; py++ {
			for pz := 1; pz <= 7; pz++ {
				grids = append(grids, sched.NodeGrid{PX: px, PY: py, PZ: pz})
			}
		}
	}
	for _, g := range grids {
		checkNetTime(t, h, g, sub80)
	}

	// The trunk's corner cases: no stacked switch, a threshold at either
	// end of the rank range and beyond it, and a trunk that is absent,
	// slower or faster than a link; on grids small enough to cover every
	// combination and a non-cubic sub-domain.
	link := h.Net.LinkBandwidth
	for _, g := range grids {
		n := g.Size()
		if n > 64 {
			continue
		}
		for _, ports := range []int{0, 1, n / 2, n - 1, n, n + 5} {
			for _, trunk := range []float64{0, 14e6, link, 4 * link} {
				hv := h
				hv.Net.NonBlockingPorts = ports
				hv.Net.TrunkBandwidth = trunk
				checkNetTime(t, hv, g, [3]int{96, 40, 24})
			}
		}
	}
}

// FuzzNetTimeClosedForm drives the differential check from arbitrary
// grids, sub-domains and switch configurations. The seed corpus under
// testdata/fuzz holds the grids the closed form was first validated on.
func FuzzNetTimeClosedForm(f *testing.F) {
	f.Add(uint8(6), uint8(5), uint8(1), uint16(80), uint16(80), uint16(80), int16(24), uint32(14e6), uint8(85))
	f.Fuzz(func(t *testing.T, px, py, pz uint8, sx, sy, sz uint16, ports int16, trunk uint32, effPct uint8) {
		g := sched.NodeGrid{PX: int(px%32) + 1, PY: int(py%32) + 1, PZ: int(pz%32) + 1}
		h := Paper()
		h.Net.NonBlockingPorts = int(ports)
		h.Net.TrunkBandwidth = float64(trunk)
		h.Net.Efficiency = float64(effPct) / 100 // 0 and >1 take the "no derating" path
		checkNetTime(t, h, g, [3]int{int(sx), int(sy), int(sz)})
	})
}

func TestClusterStepZeroAlloc(t *testing.T) {
	h := Paper()
	for _, g := range []sched.NodeGrid{sched.Arrange2D(30), sched.Arrange3D(1000), sched.Arrange3D(10000)} {
		for _, pat := range []sched.Pattern{sched.Indirect, sched.Direct} {
			opt := Options{Pattern: pat}
			if allocs := testing.AllocsPerRun(100, func() { h.ClusterStep(g, sub80, opt) }); allocs != 0 {
				t.Errorf("ClusterStep(%v, pattern %d) allocates %.0f times per call, want 0", g, pat, allocs)
			}
		}
	}
}
