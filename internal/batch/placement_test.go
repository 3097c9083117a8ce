package batch

import (
	"errors"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"
	"unsafe"

	"gpucluster/internal/netsim"
)

var errTestBoom = errors.New("boom")

// execFunc adapts a function to the Executor interface for tests.
type execFunc func(*Job, Allocation) (string, error)

func (f execFunc) Execute(j *Job, a Allocation) (string, error) { return f(j, a) }

// trunkRejectionJobs builds the mix, for the 32-node, 24-port machine,
// that a first-window engine got wrong (PR 2): it laid B on [21,25),
// across the trunk, so the window that freed for the backfill candidate
// (4 nodes, 60s, doubled to 120s by TrunkSlowdown 2 on a crossing
// window) overran the head's shadow and the candidate was refused
// although [26,30) stood free. The head (10 nodes) waits for A, to 120s.
func trunkRejectionJobs() (jobs []*Job, head, cand *Job) {
	head = &Job{Name: "head", Kind: KindLBM, Nodes: 10, Est: 100 * time.Second, Priority: 4}
	cand = &Job{Name: "cand", Kind: KindCG, Nodes: 4, Est: 60 * time.Second, Priority: 1}
	jobs = []*Job{
		{Name: "A", Kind: KindLBM, Nodes: 21, Est: 120 * time.Second, Priority: 9},
		{Name: "B", Kind: KindLBM, Nodes: 4, Est: 25 * time.Second, Priority: 8},
		{Name: "C", Kind: KindLBM, Nodes: 1, Est: 300 * time.Second, Priority: 7},
		{Name: "D", Kind: KindLBM, Nodes: 4, Est: 50 * time.Second, Priority: 6},
		{Name: "E", Kind: KindLBM, Nodes: 2, Est: 300 * time.Second, Priority: 5},
		head, cand,
	}
	return jobs, head, cand
}

// TestBackfillTakesNonCrossingWindow pins what the topology engine was
// written for: the backfill candidate is admitted on a window that does
// not cross the trunk, before the head's 120 s reservation, and the
// reserved head still starts exactly at its shadow.
func TestBackfillTakesNonCrossingWindow(t *testing.T) {
	s := newChecked(t, Config{Cluster: newTestCluster(32), Policy: Backfill, TrunkSlowdown: 2})
	jobs, head, cand := trunkRejectionJobs()
	submitAll(t, s, jobs)
	s.Run()
	if !cand.Backfilled() {
		t.Fatal("the candidate was not backfilled")
	}
	if cand.Start >= 120*time.Second {
		t.Fatalf("candidate started at %v, want before the 120s reservation", cand.Start)
	}
	if cand.Alloc.CrossesTrunk {
		t.Fatalf("candidate placed on the trunk-crossing window %v over a clean one", cand.Alloc)
	}
	if head.Start != 120*time.Second {
		t.Fatalf("reserved head started at %v, want its 120s shadow", head.Start)
	}
}

// TestEASYInvariantProperty asserts, over random mixes, that no
// backfilled gang's scheduler-known (trunk-stretched) end ever exceeds
// the blocked head's shadow reservation recorded when the backfill was
// granted.
func TestEASYInvariantProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rec := &MemRecorder{}
		s := newChecked(t, Config{
			Cluster:       newTestCluster(32),
			Policy:        Backfill,
			TrunkSlowdown: 1.5,
			Recorder:      rec,
		})
		submitAll(t, s, SyntheticMix(seed, 300, 32))
		rep := s.Run()
		if len(rep.Jobs) != 300 {
			t.Fatalf("seed %d: finished %d of 300", seed, len(rep.Jobs))
		}
		bound := backfillBounds(rec.Events())
		for _, j := range rep.Jobs {
			if !j.Backfilled() {
				continue
			}
			// With no Actual hook, End is the scheduler-known
			// stretched completion fixed at start.
			if b, ok := bound[j.ID]; !ok || j.End > b {
				t.Fatalf("seed %d: backfilled %s ends %v past its shadow %v (recorded %v)",
					seed, j, j.End, b, ok)
			}
		}
	}
}

// TestTopoPlacementOnDefaultMix pins the engine's figures on the
// clusterctl default mix (32 nodes, 200 jobs, seed 42, trunk-slowdown
// 1.1) under both of the one-shot study's default policies. They were
// the acceptance bar the engine had to meet against first-window
// placement; now they are what a change to scoring or enumeration must
// explain.
func TestTopoPlacementOnDefaultMix(t *testing.T) {
	for _, want := range []struct {
		pol         Policy
		makespan    time.Duration
		utilization float64
	}{
		{FIFO, 479540835501, 0.8287652710143572},
		{Backfill, 432915090057, 0.9100366357193806},
	} {
		s := New(Config{Cluster: newTestCluster(32), Policy: want.pol, TrunkSlowdown: 1.1})
		submitAll(t, s, SyntheticMix(42, 200, 32))
		rep := s.Run()
		if rep.Makespan != want.makespan || rep.Utilization != want.utilization {
			t.Errorf("%v: makespan %d ns, utilization %v; pinned %d ns, %v",
				want.pol, rep.Makespan, rep.Utilization, want.makespan, want.utilization)
		}
	}
}

// TestNonContiguousAssembly exercises the fragment-assembly path: when
// no contiguous window exists, the engine splits the gang over free
// fragments instead of keeping the job waiting for one.
func TestNonContiguousAssembly(t *testing.T) {
	// Cluster-level: fragment an 8-node machine into free [0,3) and
	// [6,8) around a busy middle.
	c := NewCluster(8, netsim.GigabitSwitch(8))
	occupy(c, 3, 3)
	cands := c.candidates(5, 0)
	if len(cands) == 0 {
		t.Fatal("no candidates for a split 5-node gang over fragments [3,6)+... ")
	}
	got := c.commit(cands[0])
	if got.Contiguous() || got.Count != 5 {
		t.Fatalf("split allocation %v, want 5 nodes over >1 range", got)
	}
	nodes := got.Ranges.Nodes()
	if len(nodes) != 5 || got.Grid().Size() != 5 {
		t.Fatalf("rank map %v / grid %v does not cover 5 ranks", nodes, got.Grid())
	}
	for r, n := range nodes {
		if got.Port(r) != n {
			t.Fatalf("rank %d port %d, want node %d", r, got.Port(r), n)
		}
	}
	c.Release(got, time.Second)

	// Scheduler-level: the split gang starts as soon as enough
	// fragments free up (10s), not when a contiguous window does (100s).
	s := newChecked(t, Config{Cluster: NewCluster(8, netsim.GigabitSwitch(8)), Policy: FIFO})
	short := &Job{Name: "short", Kind: KindPDE, Nodes: 3, Est: 10 * time.Second, Priority: 9}
	long := &Job{Name: "long", Kind: KindPDE, Nodes: 3, Est: 100 * time.Second, Priority: 8}
	tail := &Job{Name: "tail", Kind: KindPDE, Nodes: 2, Est: 10 * time.Second, Priority: 7}
	wide := &Job{Name: "wide", Kind: KindPDE, Nodes: 5, Est: 20 * time.Second, Priority: 0}
	submitAll(t, s, []*Job{short, long, tail, wide})
	s.Run()
	if wide.Start != 10*time.Second {
		t.Fatalf("the wide job started at %v, want 10s on fragments", wide.Start)
	}
}

// TestHeterogeneousMemoryPlacement pins the granted-nodes memory check:
// a node with too little memory is skipped by placement instead of
// being blindly granted per the old Spec(0) shortcut.
func TestHeterogeneousMemoryPlacement(t *testing.T) {
	c := NewCluster(4, netsim.GigabitSwitch(4))
	small := c.Spec(1)
	small.MemBytes = 512 << 10
	c.SetSpec(1, small)
	s := New(Config{Cluster: c, Policy: FIFO})
	// KindPDE needs cells*8 bytes: 64*64*32*8 = 1 MiB per node.
	j := &Job{Name: "mem", Kind: KindPDE, Nodes: 2, Problem: [3]int{64, 64, 32}, Est: time.Second}
	submitAll(t, s, []*Job{j})
	rep := s.Run()
	if len(rep.Jobs) != 1 || j.State != Done {
		t.Fatalf("job did not finish: %v", j.State)
	}
	for _, n := range j.Alloc.Ranges.Nodes() {
		if n == 1 {
			t.Fatalf("placement granted node 1 (512 KiB) to a 1 MiB/node job: %v", j.Alloc)
		}
	}
	// Admission: a job needing more big-memory nodes than exist is
	// rejected at submit.
	c = NewCluster(4, netsim.GigabitSwitch(4))
	for i := 1; i < 4; i++ {
		small := c.Spec(i)
		small.MemBytes = 512 << 10
		c.SetSpec(i, small)
	}
	s = New(Config{Cluster: c, Policy: FIFO})
	err := s.Submit(&Job{Name: "toobig", Kind: KindPDE, Nodes: 2, Problem: [3]int{64, 64, 32}})
	if err == nil {
		t.Fatal("submit accepted a 2-node job with only one sufficient node")
	}
}

// TestSubmitLeavesSpecPristine is the regression for Submit mutating
// caller-owned spec fields: replaying the same *Job specs against a
// second scheduler must see the original inputs.
func TestSubmitLeavesSpecPristine(t *testing.T) {
	j := &Job{Name: "replay", Kind: KindPDE, Nodes: 1, Est: 5 * time.Second}
	s1 := New(Config{Cluster: newTestCluster(2), Policy: FIFO})
	submitAll(t, s1, []*Job{j})
	rep1 := s1.Run()
	// Advance s1's clock, then resubmit: the old code stamped
	// j.Submit/j.Steps/j.Problem here.
	submitAll(t, s1, []*Job{j})
	s1.Run()
	if j.Steps != 0 || j.Problem != ([3]int{}) || j.Submit != 0 || j.Est != 5*time.Second {
		t.Fatalf("spec mutated: Steps=%d Problem=%v Submit=%v Est=%v",
			j.Steps, j.Problem, j.Submit, j.Est)
	}
	if j.ResolvedSteps() != 1 || j.ResolvedProblem() != defaultProblem(KindPDE) {
		t.Fatalf("resolution missing: steps=%d problem=%v", j.ResolvedSteps(), j.ResolvedProblem())
	}
	if j.Arrival() != rep1.Makespan {
		t.Fatalf("resubmission arrival %v, want the advanced clock %v", j.Arrival(), rep1.Makespan)
	}
	// A fresh scheduler sees the pristine spec: the job arrives at 0
	// and the makespan matches the first run.
	s2 := New(Config{Cluster: newTestCluster(2), Policy: FIFO})
	submitAll(t, s2, []*Job{j})
	rep2 := s2.Run()
	if j.Arrival() != 0 || rep2.Makespan != rep1.Makespan {
		t.Fatalf("replay diverged: arrival %v, makespan %v vs %v",
			j.Arrival(), rep2.Makespan, rep1.Makespan)
	}
}

// TestMemoryNeedCeiling pins the KindCG footprint to ceiling division:
// the largest rank's share, not the floored average.
func TestMemoryNeedCeiling(t *testing.T) {
	const perUnknown = 5*12 + 6*4
	// 65x65 = 4225 unknowns over 2 ranks: the big rank holds 2113.
	if got, want := memoryNeed(KindCG, [3]int{65, 65, 1}, 2), int64(2113*perUnknown); got != want {
		t.Fatalf("memoryNeed = %d, want %d (ceiling share)", got, want)
	}
	if got, want := memoryNeed(KindCG, [3]int{64, 64, 1}, 4), int64(1024*perUnknown); got != want {
		t.Fatalf("even split changed: %d, want %d", got, want)
	}
}

// TestAssemblyBeatsCrossingWindow pins the case where a contiguous
// window exists but every one straddles the trunk: a non-crossing
// assembly from small fragments must still be enumerated and win.
func TestAssemblyBeatsCrossingWindow(t *testing.T) {
	// Free runs [0,3), [4,6), [22,27) on the 24-port machine: the only
	// 5-wide window crosses the trunk; [0,3)+[4,6) does not.
	c := NewCluster(32, netsim.GigabitSwitch(32))
	occupy(c, 3, 1)
	occupy(c, 6, 16)
	occupy(c, 27, 5)

	cands := c.candidates(5, 0)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	best := c.commit(cands[0])
	if best.CrossesTrunk {
		t.Fatalf("best candidate %v crosses the trunk; assembly [0,3)+[4,6) was available", best)
	}
	if best.Contiguous() {
		t.Fatalf("best candidate %v contiguous; only the crossing window [22,27) is", best)
	}
}

// TestReplayResetsLifecycle asserts a failed job replayed into a second
// scheduler does not inherit the first run's failure.
func TestReplayResetsLifecycle(t *testing.T) {
	j := &Job{Name: "flaky", Kind: KindPDE, Nodes: 1, Est: time.Second}
	fail := execFunc(func(*Job, Allocation) (string, error) {
		return "", errTestBoom
	})
	s1 := New(Config{Cluster: newTestCluster(2), Policy: FIFO, Execute: fail})
	submitAll(t, s1, []*Job{j})
	if rep := s1.Run(); rep.Failed != 1 || j.Err == nil {
		t.Fatalf("setup: first run should fail the job (failed=%d err=%v)", rep.Failed, j.Err)
	}
	s2 := New(Config{Cluster: newTestCluster(2), Policy: FIFO})
	submitAll(t, s2, []*Job{j})
	rep := s2.Run()
	if rep.Failed != 0 || j.State != Done || j.Err != nil || j.Detail != "" {
		t.Fatalf("replay inherited stale lifecycle: failed=%d state=%v err=%v detail=%q",
			rep.Failed, j.State, j.Err, j.Detail)
	}

	// Every field, by reflection, so that one added later cannot be
	// forgotten: a run that preempts, slices, suspends to host, loses
	// gangs to faults and banks proactively leaves its jobs as dirty as
	// jobs get; submitted to a fresh scheduler they must equal,
	// field for field, never-run copies of the same specs submitted to
	// another. The fresh schedulers run EASY where the first ran
	// fair-share, so a surviving acct pointer shows too.
	ck, rs := fixedCosts(200*time.Millisecond, 100*time.Millisecond)
	hs, hr := fixedHostCosts(50*time.Millisecond, 25*time.Millisecond)
	used := SyntheticStream(5, 120, 32, 5*time.Second)
	fresh := SyntheticStream(5, 120, 32, 5*time.Second)
	dirty := New(Config{
		Cluster: newTestCluster(32), Policy: FairShare, TrunkSlowdown: 1.3,
		Preempt: true, Quantum: 20 * time.Second, SuspendToHost: true,
		CheckpointCost: ck, RestoreCost: rs, HostSuspendCost: hs, HostResumeCost: hr,
		Faults:             GenFaultPlan(5, 32, 4*time.Hour, 10*time.Minute),
		CheckpointInterval: 5 * time.Second,
	})
	submitAll(t, dirty, used)
	if r := dirty.Run(); r.PreemptEvents == 0 || r.SliceEvents == 0 || r.HostSuspends == 0 ||
		r.FaultKills == 0 || r.Banks == 0 || r.Backfilled == 0 {
		t.Fatalf("the dirtying run left a mechanism unused: %+v", r.Counters)
	}
	submitAll(t, New(Config{Cluster: newTestCluster(32), Policy: Backfill}), used)
	submitAll(t, New(Config{Cluster: newTestCluster(32), Policy: Backfill}), fresh)
	for i := range used {
		if diff := differingFields(reflect.ValueOf(used[i]).Elem(), reflect.ValueOf(fresh[i]).Elem()); len(diff) > 0 {
			t.Fatalf("%s resubmitted after a run differs from a never-run copy in %v", used[i], diff)
		}
	}
	if n := reflect.TypeOf(jobState{}).NumField(); n < 40 {
		t.Fatalf("jobState has %d fields: the scheduler-owned state has moved out of the struct Submit resets", n)
	}
}

// differingFields names the fields of two addressable struct values of
// one type, embedded structs walked field by field, that are not deeply
// equal.
func differingFields(a, b reflect.Value) []string {
	var out []string
	for i := 0; i < a.NumField(); i++ {
		fa, fb := a.Field(i), b.Field(i)
		if f := a.Type().Field(i); f.Anonymous {
			out = append(out, differingFields(fa, fb)...)
		} else if !reflect.DeepEqual(exposed(fa), exposed(fb)) {
			out = append(out, f.Name)
		}
	}
	return out
}

// exposed reads an addressable field's value whether or not the field
// is exported.
func exposed(v reflect.Value) any {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem().Interface()
}

// TestJobSizePinned keeps the per-job record at the size queue scans
// and the drain's live heap were measured with: a scheduling sweep walks
// thousands of pending jobs and is cache-bound on Job, and batch-drain's
// live_heap_mb has a 5% bound. The bounds are the allocator's size
// classes, not round numbers: the heap rounds a 496-byte Job up to its
// 512-byte class and an 88-byte Segment up to 96, so 448 — a class of
// its own — and 64 are where a byte saved is a byte retained less per
// job; Job is pinned exact, so a slip back into the 480- or 512-byte
// class fails here. Event rides in the daemon's ring by value, and
// Record in its ledger, one per retired job. Growing any of them is a
// decision to re-measure, not a side effect.
func TestJobSizePinned(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, max uintptr
		exact     bool
	}{
		{"Job", unsafe.Sizeof(Job{}), 448, true},
		{"Allocation", unsafe.Sizeof(Allocation{}), 40, true},
		{"Segment", unsafe.Sizeof(Segment{}), 64, true},
		{"Event", unsafe.Sizeof(Event{}), 88, false},
		{"Record", unsafe.Sizeof(Record{}), 120, false},
	} {
		if c.size > c.max || (c.exact && c.size != c.max) {
			t.Errorf("%s is %d bytes, pinned at %d (exact %v)", c.name, c.size, c.max, c.exact)
		}
	}
}

// TestDrainRetainedBytesPerJob measures what a drained job costs the
// heap while its caller still holds it, the way batch-drain's
// live_heap_mb does: an EASY drain of a 4,000-job mix on 1,024 nodes,
// estimates set so that no estimator runs, then the live heap with the
// jobs and the scheduler kept alive. Per job that is the Job in its size
// class, its Ranges, its name and the scheduler's index entry — no
// History segment: a run-to-completion job's one segment is derived
// (Segments). The figure is deterministic to a tenth of a byte.
func TestDrainRetainedBytesPerJob(t *testing.T) {
	const n = 4000
	s := New(Config{Cluster: newTestCluster(1024), Policy: Backfill, BackfillDepth: 512})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	jobs := SyntheticMix(1, n, 1024)
	for _, j := range jobs {
		j.Est = time.Duration(j.Steps) * time.Second
	}
	submitAll(t, s, jobs)
	s.RunUntil(Forever)
	runtime.GC()
	runtime.ReadMemStats(&after)
	perJob := float64(after.HeapAlloc-before.HeapAlloc) / n
	runtime.KeepAlive(s)
	runtime.KeepAlive(jobs)
	for _, j := range jobs {
		if j.State != Done || len(j.History) != 0 || len(j.Segments()) != 1 {
			t.Fatalf("%s ended %v with %d stored and %d segments; want done in one, none stored",
				j, j.State, len(j.History), len(j.Segments()))
		}
	}
	limit := 560.0
	if raceBuild() {
		// The race detector turns the tiny allocator off: a job's name and
		// user then take a 16-byte block each instead of sharing one.
		limit += 16
	}
	t.Logf("%.1f B retained per drained job", perJob)
	if perJob > limit {
		t.Fatalf("%.1f B retained per drained job, want <= %.0f", perJob, limit)
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	info, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// TestTopoAvoidsTrunkWindow checks the core scoring preference directly:
// with both a crossing and a clean window free, the engine takes the
// clean one even when the crossing one is leftmost.
func TestTopoAvoidsTrunkWindow(t *testing.T) {
	c := NewCluster(32, netsim.GigabitSwitch(32))
	occupy(c, 0, 22) // leaves [22,32) free
	cands := c.candidates(4, 0)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	best := c.commit(cands[0])
	if best.CrossesTrunk {
		t.Fatalf("best candidate %v crosses the trunk; a clean window existed in [24,32)", best)
	}
	if first := best.Ranges[0].First; first < 24 {
		t.Fatalf("best candidate %v overlaps the trunk boundary side", best)
	}
}
