package perfmodel

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

const errorsGolden = "testdata/errors.txt"

// paperStrongScaling is the strong-scaling paragraph of Sec. 4.4: the
// 160x160x80 lattice's GPU/CPU speed-up factor by node count.
var paperStrongScaling = []struct {
	nodes   int
	speedup float64
}{{4, 5.3}, {16, 2.4}}

// TestModelErrorsGolden pins the calibrated model against the paper cell
// by cell in testdata/errors.txt: every cell of Table 1 and Table 2 and
// the strong-scaling paragraph's two speed-ups, each with the model's
// figure, the paper's and the error (relative, or in the cell's unit
// where the paper reads 0). A change to a constant of Paper() or to how
// the model composes them shows as the lines it moves. REGEN_ERRORS=1
// rewrites the file.
func TestModelErrorsGolden(t *testing.T) {
	var lines []string
	cell := func(table string, nodes int, column string, model, paper float64) {
		line := fmt.Sprintf("%s %2d nodes %-14s model %9.3f paper %8.3f", table, nodes, column, model, paper)
		if paper != 0 {
			line += fmt.Sprintf(" error %+7.2f%%", 100*(model-paper)/paper)
		} else {
			line += fmt.Sprintf(" error %+7.3f", model)
		}
		lines = append(lines, line)
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

	h := Paper()
	rows := h.FixedSubDomainSweep(PaperNodeCounts, sub80)
	for i, r := range rows {
		p := PaperTable1[i]
		cell("table1", r.Nodes, "cpu_total_ms", ms(r.CPUTotal), p.CPUTotalMS)
		cell("table1", r.Nodes, "gpu_compute_ms", ms(r.GPUCompute), p.GPUComputeMS)
		cell("table1", r.Nodes, "gpu_cpu_ms", ms(r.GPUCPUComm), p.GPUCPUCommMS)
		cell("table1", r.Nodes, "net_nonovl_ms", ms(r.NetNonOverlap), p.NetNonOverMS)
		cell("table1", r.Nodes, "net_total_ms", ms(r.NetTotal), p.NetTotalMS)
		cell("table1", r.Nodes, "gpu_total_ms", ms(r.GPUTotal), p.GPUTotalMS)
		cell("table1", r.Nodes, "speedup", r.Speedup, p.SpeedupFactor)
	}
	for i, r := range Throughput(rows) {
		p := PaperTable2[i]
		cell("table2", r.Nodes, "mcells_per_s", r.CellsPerSec/1e6, p.CellsPerSec/1e6)
		cell("table2", r.Nodes, "speedup", r.Speedup, p.Speedup)
		cell("table2", r.Nodes, "efficiency", r.Efficiency, p.Efficiency)
	}
	for _, p := range paperStrongScaling {
		r, err := h.StrongScaling([3]int{160, 160, 80}, []int{p.nodes})
		if err != nil {
			t.Fatal(err)
		}
		cell("strong", p.nodes, "speedup", r[0].Speedup, p.speedup)
	}

	got := strings.Join(lines, "\n") + "\n"
	if os.Getenv("REGEN_ERRORS") != "" {
		if err := os.WriteFile(errorsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(errorsGolden)
	if err != nil {
		t.Fatalf("%v (run with REGEN_ERRORS=1 to generate)", err)
	}
	if got != string(want) {
		t.Errorf("model-vs-paper errors differ from %s (REGEN_ERRORS=1 rewrites it after an intentional change):\ngot:\n%swant:\n%s", errorsGolden, got, want)
	}
}
