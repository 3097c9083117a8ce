package batch

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// Engine-layer tests: the incremental core must reproduce the one-shot
// Run() bit for bit under a virtual clock, RunUntil must be able to
// chop the same schedule at arbitrary instants without changing it,
// and the wall-clock pump must drive everything to a terminal state
// with concurrent ingest.

// reportsEqual compares the schedule-defining surface of two reports.
func reportsEqual(t *testing.T, a, b Report) {
	t.Helper()
	if a.Makespan != b.Makespan || a.AvgWait != b.AvgWait || a.MaxWait != b.MaxWait ||
		a.Utilization != b.Utilization || a.Backfilled != b.Backfilled ||
		a.PreemptEvents != b.PreemptEvents || a.SliceEvents != b.SliceEvents ||
		a.DrainWait != b.DrainWait || a.RestoreWait != b.RestoreWait ||
		a.HostSuspends != b.HostSuspends || a.Demotions != b.Demotions {
		t.Fatalf("reports diverged:\n%v/%v/%v/%f/%d/%d/%d/%v/%v/%d/%d\nvs\n%v/%v/%v/%f/%d/%d/%d/%v/%v/%d/%d",
			a.Makespan, a.AvgWait, a.MaxWait, a.Utilization, a.Backfilled, a.PreemptEvents, a.SliceEvents, a.DrainWait, a.RestoreWait, a.HostSuspends, a.Demotions,
			b.Makespan, b.AvgWait, b.MaxWait, b.Utilization, b.Backfilled, b.PreemptEvents, b.SliceEvents, b.DrainWait, b.RestoreWait, b.HostSuspends, b.Demotions)
	}
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatalf("job counts diverged: %d vs %d", len(a.Jobs), len(b.Jobs))
	}
	byID := make(map[int]*Job, len(b.Jobs))
	for _, j := range b.Jobs {
		byID[j.ID] = j
	}
	for _, j := range a.Jobs {
		k := byID[j.ID]
		if k == nil || j.Start != k.Start || j.End != k.End || j.State != k.State ||
			j.Preemptions() != k.Preemptions() || j.TimeSlices() != k.TimeSlices() {
			t.Fatalf("job %d lifecycle diverged", j.ID)
		}
	}
}

// TestEngineVirtualMatchesRun pins the compatibility claim: the same
// mix through the Engine facade under a VirtualClock reproduces the
// direct Scheduler.Run schedule exactly, across every crossed
// configuration.
func TestEngineVirtualMatchesRun(t *testing.T) {
	DebugVerifyShadows = true
	defer func() { DebugVerifyShadows = false }()

	const nodes, count = 32, 150
	for _, cfg := range propertyConfigs() {
		cfg := cfg
		name := fmt.Sprintf("%v/preempt=%v/quantum=%v/host=%v", cfg.Policy, cfg.Preempt, cfg.Quantum, cfg.SuspendToHost)
		t.Run(name, func(t *testing.T) {
			direct := cfg
			direct.Cluster = newTestCluster(nodes)
			s := New(direct)
			submitAll(t, s, SyntheticStream(7, count, nodes, 5*time.Second))
			want := s.Run()

			viaEngine := cfg
			viaEngine.Cluster = newTestCluster(nodes)
			e := NewEngine(viaEngine, nil)
			for _, j := range SyntheticStream(7, count, nodes, 5*time.Second) {
				if _, err := e.Ingest(j); err != nil {
					t.Fatalf("ingest: %v", err)
				}
			}
			reportsEqual(t, want, e.Run())
		})
	}
}

// TestEngineRunUntilChopped drives the same schedule through RunUntil
// in fixed-size time slices — the wall-clock pump's access pattern —
// and requires the identical final report: catch-up processing must
// not depend on how the timeline was chopped.
func TestEngineRunUntilChopped(t *testing.T) {
	const nodes, count = 32, 150
	ck, rs := fixedCosts(200*time.Millisecond, 100*time.Millisecond)
	cfg := Config{Policy: Backfill, Preempt: true, Quantum: 5 * time.Second,
		CheckpointCost: ck, RestoreCost: rs}

	direct := cfg
	direct.Cluster = newTestCluster(nodes)
	s := New(direct)
	submitAll(t, s, SyntheticStream(9, count, nodes, 5*time.Second))
	want := s.Run()

	chopped := cfg
	chopped.Cluster = newTestCluster(nodes)
	c := New(chopped)
	submitAll(t, c, SyntheticStream(9, count, nodes, 5*time.Second))
	for tick := 7 * time.Second; c.Now() < want.Makespan; tick += 7 * time.Second {
		c.RunUntil(tick)
	}
	reportsEqual(t, want, c.Run())
}

// TestEngineStepStopsWhenDrained pins Step's terminal contract.
func TestEngineStepStopsWhenDrained(t *testing.T) {
	s := New(Config{Cluster: newTestCluster(4)})
	submitAll(t, s, []*Job{{Name: "only", Kind: KindPDE, Nodes: 2, Est: 5 * time.Second}})
	steps := 0
	for s.Step() {
		if steps++; steps > 10 {
			t.Fatal("Step never drained a one-job queue")
		}
	}
	if s.Step() {
		t.Fatal("Step advanced a drained scheduler")
	}
	rep := s.Run()
	if len(rep.Jobs) != 1 || rep.Jobs[0].State != Done {
		t.Fatalf("drained schedule wrong: %+v", rep.Jobs)
	}
}

// manualClock is a hand-advanced Clock: queries against the engine
// catch up only to the instant the test has released.
type manualClock struct{ t time.Duration }

func (c *manualClock) Now() time.Duration { return c.t }

// TestEngineSnapshotAndLoad exercises the introspection surface
// mid-run: queued and running jobs are both visible, and Load sees the
// per-user footprint quota admission needs.
func TestEngineSnapshotAndLoad(t *testing.T) {
	e := NewEngine(Config{Cluster: newTestCluster(4)}, &manualClock{})
	wide, err := e.Ingest(&Job{Name: "wide", Kind: KindPDE, Nodes: 4, User: "ana", Est: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := e.Ingest(&Job{Name: "waits", Kind: KindPDE, Nodes: 4, User: "bo", Est: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// The clock sits at zero: the first wide job dispatched at ingest
	// time, its completion (10s) is still in the future, the second
	// waits.
	qs := e.Snapshot()
	if qs.Running != 1 || qs.Queued != 1 || len(qs.Jobs) != 2 {
		t.Fatalf("snapshot: %d running, %d queued, %d listed", qs.Running, qs.Queued, len(qs.Jobs))
	}
	if qs.Jobs[0].ID != queued || qs.Jobs[0].State != Queued {
		t.Fatalf("snapshot order: first entry %+v, want queued job %d", qs.Jobs[0], queued)
	}
	if qs.Jobs[1].ID != wide || qs.Jobs[1].State != Running {
		t.Fatalf("snapshot order: second entry %+v, want running job %d", qs.Jobs[1], wide)
	}
	if l := e.Load("ana"); l.Queued != 1 || l.NodeSeconds <= 0 {
		t.Fatalf("ana load: %+v", l)
	}
	if l := e.Load("bo"); l.Queued != 1 {
		t.Fatalf("bo load: %+v", l)
	}
	if l := e.Load("nobody"); l.Queued != 0 || l.NodeSeconds != 0 {
		t.Fatalf("unknown user load: %+v", l)
	}
	st, err := e.JobStatus(wide)
	if err != nil || st.State != Running || st.Nodes != 4 {
		t.Fatalf("JobStatus(%d) = %+v, %v", wide, st, err)
	}
	if _, err := e.JobStatus(99); err == nil {
		t.Fatal("JobStatus of unknown ID succeeded")
	}
	e.Run()
	if l := e.Load("ana"); l.Queued != 0 {
		t.Fatalf("ana load after drain: %+v", l)
	}
}

// TestSnapshotCountsFutureArrivals pins the readers that mean every
// queued job to what they read when future arrivals shared the queue
// with arrived jobs: an engine whose clock runs ahead of the scheduler's
// last event stamps its ingests as future arrivals, and
// QueueStatus.Queued, the Jobs order, Load, the batch_queue_depth gauge
// and the report's blocked-pass rows must all count them.
func TestSnapshotCountsFutureArrivals(t *testing.T) {
	clock := &manualClock{}
	e := NewEngine(Config{Cluster: newTestCluster(4), Policy: Backfill,
		Recorder: &MemRecorder{}, Metrics: NewRegistry()}, clock)
	ingest := func(name, user string, nodes, prio int, est, at time.Duration) {
		t.Helper()
		if _, err := e.Ingest(&Job{Name: name, Kind: KindCG, Nodes: nodes, Priority: prio, User: user, Est: est, Submit: at}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(now time.Duration, queued int, ids string, ana, bo UserLoad, rows string) {
		t.Helper()
		qs := e.Snapshot()
		var got []int
		for _, r := range qs.Jobs {
			got = append(got, r.ID)
		}
		if qs.Now != now || qs.Queued != queued || fmt.Sprint(got) != ids {
			t.Fatalf("snapshot at %v: %d queued, jobs %v; want %v, %d, %s", qs.Now, qs.Queued, got, now, queued, ids)
		}
		if l := e.Load("ana"); l != ana {
			t.Fatalf("ana load %+v, want %+v", l, ana)
		}
		if l := e.Load("bo"); l != bo {
			t.Fatalf("bo load %+v, want %+v", l, bo)
		}
		if g := e.s.met.queueDepth.Value(); g != float64(queued) {
			t.Fatalf("batch_queue_depth reads %v, want %d", g, queued)
		}
		rep := e.Report()
		var ids2 []int
		for id := range rep.blocked {
			ids2 = append(ids2, id)
		}
		sort.Ints(ids2)
		var b strings.Builder
		for _, id := range ids2 {
			fmt.Fprintf(&b, "%d:%v ", id, *rep.blocked[id])
		}
		if b.String() != rows {
			t.Fatalf("report's blocked rows %q, want %q", b.String(), rows)
		}
	}
	// At 0 the hog takes the machine and a and b wait behind it.
	ingest("hog", "hog", 4, 2, 100*time.Second, 0)
	ingest("a", "ana", 2, 1, 20*time.Second, 0)
	ingest("b", "bo", 1, 0, 10*time.Second, 0)
	check(0, 2, "[2 3 1]", UserLoad{1, 40}, UserLoad{1, 10}, "2:[0 0 4 0 0 0 0 0 0 0 0 0] 3:[0 0 3 0 0 0 0 0 0 0 0 0] ")
	// At 30 s the scheduler's clock is still at 0, its next event the
	// hog's end at 100 s: c, d and e, stamped 40, 45 and 50 s, are all in
	// its future, and e ranks between a and b.
	clock.t = 30 * time.Second
	ingest("c", "ana", 1, 2, 5*time.Second, 40*time.Second)
	ingest("d", "bo", 1, 0, 7*time.Second, 45*time.Second)
	ingest("e", "ana", 2, 1, 9*time.Second, 50*time.Second)
	check(0, 5, "[4 2 6 3 5 1]", UserLoad{3, 63}, UserLoad{2, 17}, "2:[0 0 10 0 0 0 0 0 0 0 0 0] 3:[0 0 9 0 0 0 0 0 0 0 0 0] ")
	// At 60 s the three have arrived, and f, stamped 70 s, ranks first.
	clock.t = 60 * time.Second
	ingest("f", "bo", 1, 3, 4*time.Second, 70*time.Second)
	check(50*time.Second, 6, "[7 4 2 6 3 5 1]", UserLoad{3, 63}, UserLoad{3, 21},
		"2:[0 0 17 0 0 0 0 0 0 0 0 0] 3:[0 0 16 0 0 0 0 0 0 0 0 0] 4:[0 0 6 0 0 0 0 0 0 0 0 0] 5:[0 0 5 0 0 0 0 0 0 0 0 0] 6:[0 0 4 0 0 0 0 0 0 0 0 0] ")
}

// TestWallClockMapsTime pins the wall clock's compression arithmetic.
func TestWallClockMapsTime(t *testing.T) {
	c := &WallClock{Epoch: time.Now().Add(-time.Second), Compress: 60}
	v := c.Now()
	if v < 55*time.Second || v > 70*time.Second {
		t.Fatalf("1s wall at 60x reads %v, want ~60s", v)
	}
	if w := c.Until(v + 60*time.Second); w < 800*time.Millisecond || w > 1200*time.Millisecond {
		t.Fatalf("60 virtual seconds at 60x should be ~1s wall, got %v", w)
	}
	if c.Until(0) != 0 {
		t.Fatalf("Until(past) = %v, want 0", c.Until(0))
	}
}

// TestEngineWallClockDrivesToTerminal runs the pump at extreme
// compression with jobs ingested from concurrent goroutines — the
// live-daemon shape. Everything accepted must reach a terminal state,
// and the engine's virtual timeline must stay internally consistent.
func TestEngineWallClockDrivesToTerminal(t *testing.T) {
	e := NewEngine(Config{Cluster: newTestCluster(8), Policy: Backfill},
		NewWallClock(100_000)) // ~1 virtual day per wall second
	e.Start()
	defer e.Stop()
	const submitters, each = 4, 5
	ids := make(chan int, submitters*each)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id, err := e.Ingest(&Job{
					Name: fmt.Sprintf("w%d-%d", g, i), Kind: KindPDE,
					Nodes: 1 + (g+i)%4, User: fmt.Sprintf("u%d", g),
					Est: time.Duration(1+i) * time.Minute,
				})
				if err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
				ids <- id
			}
		}(g)
	}
	wg.Wait()
	close(ids)
	deadline := time.Now().Add(30 * time.Second)
	for id := range ids {
		for {
			st, err := e.JobStatus(id)
			if err != nil {
				t.Fatalf("status %d: %v", id, err)
			}
			if st.State == Done || st.State == Failed {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d still %v at deadline", id, st.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	rep := e.Drain()
	if len(rep.Jobs) != submitters*each || rep.Failed != 0 {
		t.Fatalf("drained %d jobs (%d failed), want %d", len(rep.Jobs), rep.Failed, submitters*each)
	}
	checkNoOverlap(t, rep.Jobs, 8)
}

var explainSink Explanation

// BenchmarkEngineExplain reads one blocked job's explanation from an
// engine whose full-stream recorder already holds 1k and 100k events:
// the counter row makes time and allocations the same at both.
func BenchmarkEngineExplain(b *testing.B) {
	for _, prior := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("events=%d", prior), func(b *testing.B) {
			rec := &MemRecorder{}
			e := NewEngine(Config{Cluster: newTestCluster(4), Policy: FIFO, Recorder: rec}, nil)
			// A hog holds the machine; every further pass blocks the nine
			// jobs behind it again, nine events a pass.
			for i := 0; i < 10; i++ {
				if _, err := e.Ingest(&Job{Name: "wide", Kind: KindPDE, Nodes: 4, Est: time.Hour}); err != nil {
					b.Fatal(err)
				}
			}
			for len(rec.Events()) < prior {
				e.RunUntil(0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				explainSink, _ = e.Explain(2)
			}
			if explainSink.BlockedPasses == 0 {
				b.Fatal("the queue head explains as never blocked")
			}
		})
	}
}
