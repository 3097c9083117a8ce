package main

import (
	"testing"
	"time"
)

// TestPricedCellsAreTheModelGrids pins Table 1's GPU<->CPU cells to the
// busiest rank of sched.Arrange2D's grids. A low face toward another
// rank unpacks more uploads than a high one, so the busiest rank is the
// last of 2x1x1 (one low x face) and of 2x2x1 (low x and y), and on
// 4x2x1, the 8-node grid, rank 5 at (1,1,0): low and high x and low y.
func TestPricedCellsAreTheModelGrids(t *testing.T) {
	want := map[int]pricedCell{
		2: {1, 2124812*time.Nanosecond + 64243520*time.Nanosecond},
		4: {3, 4297744*time.Nanosecond + 144555520*time.Nanosecond},
		8: {5, 6422556*time.Nanosecond + 192738160*time.Nanosecond},
	}
	got := pricedGPUCPU()
	if len(got) != len(want) {
		t.Errorf("priced cells for %d node counts, want %d", len(got), len(want))
	}
	for nodes, w := range want {
		if got[nodes] != w {
			t.Errorf("%d nodes: busiest rank %d at %v, want rank %d at %v",
				nodes, got[nodes].rank, got[nodes].time, w.rank, w.time)
		}
	}
}
