package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

const golden = "testdata/paperbench.txt"

// TestPaperbenchGolden pins everything paperbench prints: every table,
// figure, ablation and dispersion line, and the model's Table 1, Table 2
// and strong-scaling cells against the paper's, cell by cell, in the
// errors section. A change to a constant of perfmodel.Paper(), to how
// the model composes them, to the priced GPU step or to the dispersion
// run shows as the lines it moves. REGEN_PAPERBENCH=1 rewrites the file.
func TestPaperbenchGolden(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-exp", "all"}, &out, &errw); code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, errw.String())
	}
	got := out.String()
	if os.Getenv("REGEN_PAPERBENCH") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with REGEN_PAPERBENCH=1 to generate)", err)
	}
	if got != string(want) {
		t.Errorf("paperbench output differs from %s (REGEN_PAPERBENCH=1 rewrites it after an intentional change):\ngot:\n%swant:\n%s", golden, got, want)
	}
}

// TestRunFrontDoor covers the flags: -list names every experiment in
// -exp all order, one experiment prints its own section of the golden
// without the trailing blank line, and an unknown name or flag exits 2.
func TestRunFrontDoor(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-list"}, &out, &errw); code != 0 {
		t.Fatalf("-list: exit code %d", code)
	}
	var names []string
	for _, e := range experiments {
		names = append(names, e.name)
	}
	if got, want := out.String(), strings.Join(names, "\n")+"\n"; got != want {
		t.Errorf("-list printed %q, want %q", got, want)
	}

	out.Reset()
	if code := run([]string{"-exp", "economics"}, &out, &errw); code != 0 {
		t.Fatalf("-exp economics: exit code %d", code)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "=== Economics") || !strings.Contains(string(want), out.String()+"\n") {
		t.Errorf("-exp economics printed %q, not its section of %s", out.String(), golden)
	}

	for _, args := range [][]string{{"-exp", "table3"}, {"-no-such-flag"}} {
		errw.Reset()
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("%v: exit code %d, want 2", args, code)
		}
		if errw.Len() == 0 {
			t.Errorf("%v: nothing on stderr", args)
		}
	}
}

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
