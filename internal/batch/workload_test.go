package batch

import (
	"strings"
	"testing"
)

// runOne drives a single job through a scheduler wired to the real
// workload adapters and returns it completed.
func runOne(t *testing.T, j *Job, nodes int) *Job {
	t.Helper()
	s := New(Config{
		Cluster: newTestCluster(nodes),
		Policy:  Backfill,
		Execute: SimExecutor{TracerParticles: 500},
	})
	if err := s.Submit(j); err != nil {
		t.Fatalf("submit: %v", err)
	}
	rep := s.Run()
	if len(rep.Jobs) != 1 {
		t.Fatalf("finished %d jobs, want 1", len(rep.Jobs))
	}
	return rep.Jobs[0]
}

func TestSimExecutorLBMWithTracer(t *testing.T) {
	j := runOne(t, &Job{
		Name: "flow", Kind: KindLBM, Nodes: 4,
		Problem: [3]int{8, 8, 8}, Steps: 5,
	}, 8)
	if j.State != Done {
		t.Fatalf("LBM job %v: %v", j.State, j.Err)
	}
	if !strings.Contains(j.Detail, "mass") || !strings.Contains(j.Detail, "tracer centroid") {
		t.Fatalf("detail %q missing mass/tracer summary", j.Detail)
	}
}

func TestSimExecutorCGConverges(t *testing.T) {
	j := runOne(t, &Job{
		Name: "poisson", Kind: KindCG, Nodes: 4,
		Problem: [3]int{16, 16, 1}, Steps: 2000,
	}, 8)
	if j.State != Done {
		t.Fatalf("CG job %v: %v", j.State, j.Err)
	}
	if !strings.Contains(j.Detail, "residual") {
		t.Fatalf("detail %q missing solver summary", j.Detail)
	}
}

func TestSimExecutorPDEConservesHeat(t *testing.T) {
	j := runOne(t, &Job{
		Name: "heat", Kind: KindPDE, Nodes: 3,
		Problem: [3]int{16, 16, 4}, Steps: 10,
	}, 8)
	if j.State != Done {
		t.Fatalf("PDE job %v: %v", j.State, j.Err)
	}
	if !strings.Contains(j.Detail, "heat drift") {
		t.Fatalf("detail %q missing conservation summary", j.Detail)
	}
}

func TestFailedJobStillReleasesNodes(t *testing.T) {
	s := New(Config{
		Cluster: newTestCluster(8),
		Policy:  FIFO,
		Execute: SimExecutor{},
	})
	// 2x2 Poisson has 4 unknowns: unsplittable over 8 ranks, so the
	// adapter fails — the gang must still be held and then released.
	bad := &Job{Name: "doomed", Kind: KindCG, Nodes: 8, Problem: [3]int{2, 2, 1}, Steps: 10}
	good := &Job{Name: "after", Kind: KindPDE, Nodes: 8, Problem: [3]int{8, 8, 2}, Steps: 2}
	submitAll(t, s, []*Job{bad, good})
	rep := s.Run()
	if rep.Failed != 1 {
		t.Fatalf("failed count %d, want 1", rep.Failed)
	}
	if bad.State != Failed || bad.Err == nil {
		t.Fatalf("bad job state %v err %v", bad.State, bad.Err)
	}
	if bad.Runtime() <= 0 {
		t.Fatal("failed job should hold its allocation for its runtime")
	}
	if good.State != Done {
		t.Fatalf("follow-up job %v: %v", good.State, good.Err)
	}
	if good.Start < bad.End {
		t.Fatalf("follow-up started %v before failed gang freed at %v", good.Start, bad.End)
	}
}

func TestMixedBatchExecutesEndToEnd(t *testing.T) {
	s := newChecked(t, Config{
		Cluster: newTestCluster(6),
		Policy:  Backfill,
		Execute: SimExecutor{TracerParticles: 200},
	})
	jobs := []*Job{
		{Name: "lbm", Kind: KindLBM, Nodes: 2, Problem: [3]int{8, 8, 8}, Steps: 3},
		{Name: "cg", Kind: KindCG, Nodes: 3, Problem: [3]int{12, 12, 1}, Steps: 1000},
		{Name: "pde", Kind: KindPDE, Nodes: 4, Problem: [3]int{12, 12, 3}, Steps: 5},
		{Name: "lbm1", Kind: KindLBM, Nodes: 1, Problem: [3]int{8, 8, 8}, Steps: 3},
	}
	submitAll(t, s, jobs)
	rep := s.Run()
	for _, j := range rep.Jobs {
		if j.State != Done {
			t.Errorf("%s: %v (%v)", j, j.State, j.Err)
		}
	}
	if rep.Makespan <= 0 || rep.Utilization <= 0 {
		t.Fatalf("degenerate report: makespan %v utilization %v", rep.Makespan, rep.Utilization)
	}
}
