package main

import (
	"testing"
	"time"
)

// TestPricedCellsAreTheModelGrids pins Table 1's GPU<->CPU cells to
// rank 0 of sched.Arrange2D's grids: 2x1x1 exchanges one high face, and
// 2x2x1 and 4x2x1, the 8-node grid, both exchange their high x and y
// faces of the same 80^3 sub-domain, so the 4- and 8-node cells are
// equal. A 2x2x2 grid would add a third face.
func TestPricedCellsAreTheModelGrids(t *testing.T) {
	oneFace := 2124812*time.Nanosecond + 48182640*time.Nanosecond
	twoFaces := 4297744*time.Nanosecond + 96369840*time.Nanosecond
	want := map[int]time.Duration{2: oneFace, 4: twoFaces, 8: twoFaces}
	got := pricedGPUCPU()
	if len(got) != len(want) {
		t.Errorf("priced cells for %d node counts, want %d", len(got), len(want))
	}
	for nodes, w := range want {
		if got[nodes] != w {
			t.Errorf("%d nodes: GPU<->CPU %v, want %v", nodes, got[nodes], w)
		}
	}
}
