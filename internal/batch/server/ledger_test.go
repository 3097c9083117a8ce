package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"gpucluster/internal/batch"
)

// call sends one request straight to the handler as user ana.
func call(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("X-User", "ana")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// mustCall is call with the status checked.
func mustCall(t *testing.T, h http.Handler, method, path string, body []byte, want int) []byte {
	t.Helper()
	w := call(h, method, path, body)
	if w.Code != want {
		t.Fatalf("%s %s: HTTP %d, want %d: %s", method, path, w.Code, want, w.Body)
	}
	return w.Body.Bytes()
}

// submit posts a spec and returns the assigned ID.
func submit(t *testing.T, h http.Handler, spec JobSpec) int {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	if err := json.Unmarshal(mustCall(t, h, http.MethodPost, "/v1/jobs", body, http.StatusCreated), &v); err != nil {
		t.Fatal(err)
	}
	return v.ID
}

// held reads the length of one of the scheduler's own per-job
// containers — by reflection, so that the bound is on the container and
// not on an accessor's word for it. A renamed field panics here.
func held(e *batch.Engine, field string) int {
	return reflect.ValueOf(e).Elem().FieldByName("s").Elem().FieldByName(field).Len()
}

// TestServerPerJobStateBounded runs three times the ledger's capacity of
// jobs through a server while a few jobs stay queued and running. What
// the daemon keeps per job — the scheduler's byID and finished, the
// server's live map, the ledger and its index; a job's blocked-pass row
// hangs off the job and goes with it — is the live jobs plus at most
// the ledger's capacity, and the heap is no larger after the third
// capacity's worth than after the second.
func TestServerPerJobStateBounded(t *testing.T) {
	const wave = 16
	s := New(Config{
		Batch: batch.Config{Cluster: testCluster(4), Policy: batch.Backfill},
		Clock: batch.VirtualClock{},
	})
	h, eng := s.Handler(), s.Engine()
	// Live for the whole test: one job running on one node for a
	// century, and three behind it that need the whole machine.
	submit(t, h, JobSpec{Name: "pin", Kind: "pde", Nodes: 1, Priority: 9, EstSeconds: 3e9})
	for i := 0; i < 3; i++ {
		submit(t, h, JobSpec{Name: "wide", Kind: "pde", Nodes: 4, EstSeconds: 60})
	}
	const live = 4

	var heap [4]uint64
	for n := 0; n < 3*batch.LedgerCapacity; {
		for i := 0; i < wave; i++ {
			submit(t, h, JobSpec{Name: "short", Kind: "pde", Nodes: 1 + i%3, EstSeconds: 60})
		}
		eng.RunUntil(eng.Now() + time.Hour)
		if n += wave; n%batch.LedgerCapacity != 0 {
			continue
		}
		qs := eng.Snapshot()
		if qs.Queued+qs.Running != live || qs.Finished != n {
			t.Fatalf("after %d jobs: %d queued, %d running, %d finished; want %d live and every short job finished",
				n, qs.Queued, qs.Running, qs.Finished, live)
		}
		b := &s.book
		for name, got := range map[string]int{
			"Scheduler.byID":     held(eng, "byID"),
			"Scheduler.finished": held(eng, "finished"),
			"jobBook.live":       len(b.live),
			"jobBook.recs":       len(b.recs),
			"jobBook.slot":       len(b.slot),
		} {
			if got > live+batch.LedgerCapacity {
				t.Errorf("after %d jobs %s holds %d entries, over %d live + the ledger's %d", n, name, got, live, batch.LedgerCapacity)
			}
		}
		// The bound is not slack: the scheduler holds the live jobs and
		// nothing else, the ledger exactly what it has room for.
		if held(eng, "byID") != live || held(eng, "finished") != 0 || len(b.live) != live ||
			len(b.recs) != batch.LedgerCapacity || len(b.slot) != len(b.recs) {
			t.Fatalf("after %d jobs: byID %d, finished %d, live map %d, ledger %d records / %d indexed",
				n, held(eng, "byID"), held(eng, "finished"), len(b.live), len(b.recs), len(b.slot))
		}
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		heap[n/batch.LedgerCapacity] = m.HeapAlloc
	}
	if lo, hi := float64(heap[2])*0.95, float64(heap[2])*1.05; float64(heap[3]) < lo || float64(heap[3]) > hi {
		t.Fatalf("live heap %d B after 3x the ledger's capacity of jobs, %d B after 2x: not flat within 5%%", heap[3], heap[2])
	}
}

// TestLedgerBytesPerSlot measures what the daemon keeps per retired job
// once it is at its bound: a server retires the ledger's capacity of
// one-node jobs, which fills the ledger and, four lifecycle events a
// job, the event ring, and the live heap above the same server empty is
// divided by the ledger's slots. Per slot that is the ledger entry (the
// batch.Record and the wall stamps, pinned below), the job's name, its
// place in the ID index, and its share of the ring's events and their
// submit labels. The figure is deterministic to a tenth of a byte.
func TestLedgerBytesPerSlot(t *testing.T) {
	if size := unsafe.Sizeof(jobRecord{}); size > 136 {
		t.Errorf("a ledger entry is %d bytes, pinned at 136", size)
	}
	const wave = 64
	s := New(Config{
		Batch: batch.Config{Cluster: testCluster(4), Policy: batch.Backfill},
		Clock: batch.VirtualClock{},
	})
	h := s.Handler()
	var empty, full runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&empty)
	for n := 0; n < batch.LedgerCapacity; n += wave {
		for i := 0; i < wave; i++ {
			submit(t, h, JobSpec{Name: "slot", Kind: "pde", Nodes: 1, EstSeconds: 60})
		}
		s.Engine().RunUntil(batch.Forever)
	}
	runtime.GC()
	runtime.ReadMemStats(&full)
	runtime.KeepAlive(s)
	if len(s.book.recs) != batch.LedgerCapacity || len(s.book.live) != 0 || len(s.Engine().Report().Events) != batch.RingCapacity {
		t.Fatalf("ledger %d records, live map %d, ring %d events; want both bounds reached and nothing live",
			len(s.book.recs), len(s.book.live), len(s.Engine().Report().Events))
	}
	perSlot := (float64(full.HeapAlloc) - float64(empty.HeapAlloc)) / batch.LedgerCapacity
	t.Logf("%.1f B per ledger slot (%d B empty, %d B full)", perSlot, empty.HeapAlloc, full.HeapAlloc)
	if perSlot > 310 {
		t.Fatalf("%.1f B per ledger slot, want <= 310", perSlot)
	}
}

// failNamed fails the job called "fail" and describes every other.
type failNamed struct{}

func (failNamed) Execute(j *batch.Job, a batch.Allocation) (string, error) {
	if j.Name == "fail" {
		return "exit status 3", errors.New("workload failed")
	}
	return fmt.Sprintf("%s ran on %d nodes", j.Name, a.Count), nil
}

// TestRetiredViewByteEqual: what GET answers for a terminal job is the
// same bytes the instant before the scheduler forgets it and for as
// long as the ledger keeps it — explain block, wall stamps and all — for
// a done, a failed, a canceled-while-queued, a canceled-while-running
// and a once-preempted job. The server is told not to retire until every
// job is terminal, so the first reading comes from the scheduler and the
// second from the ledger.
func TestRetiredViewByteEqual(t *testing.T) {
	s := New(Config{
		Batch: batch.Config{Cluster: testCluster(4), Policy: batch.Backfill, Preempt: true, Execute: failNamed{}},
		Clock: batch.VirtualClock{},
	})
	h, eng := s.Handler(), s.Engine()
	eng.RetireTo(nil)

	want := map[int]string{} // ID -> final state
	add := func(state string, spec JobSpec) int {
		id := submit(t, h, spec)
		want[id] = state
		return id
	}
	add("done", JobSpec{Name: "done", Kind: "pde", Nodes: 1, Priority: 1, EstSeconds: 10})
	add("failed", JobSpec{Name: "fail", Kind: "cg", Nodes: 1, Priority: 1, EstSeconds: 10})
	low := add("done", JobSpec{Name: "low", Kind: "pde", Nodes: 2, EstSeconds: 100})
	eng.RunUntil(0) // the three fill the machine
	add("done", JobSpec{Name: "high", Kind: "pde", Nodes: 2, Priority: 5, EstSeconds: 10})
	eng.RunUntil(0) // high is blocked and begins draining low
	queued := add("canceled", JobSpec{Name: "never-ran", Kind: "lbm", Nodes: 4, EstSeconds: 10})
	mustCall(t, h, http.MethodDelete, fmt.Sprintf("/v1/jobs/%d", queued), nil, http.StatusOK)
	eng.RunUntil(15 * time.Second)
	running := add("canceled", JobSpec{Name: "cut-short", Kind: "pde", Nodes: 1, Priority: 1, EstSeconds: 1000})
	eng.RunUntil(15 * time.Second)
	if v := mustCall(t, h, http.MethodGet, fmt.Sprintf("/v1/jobs/%d", running), nil, http.StatusOK); !bytes.Contains(v, []byte(`"state":"running"`)) {
		t.Fatalf("job %d should be running when it is canceled: %s", running, v)
	}
	mustCall(t, h, http.MethodDelete, fmt.Sprintf("/v1/jobs/%d", running), nil, http.StatusOK)
	eng.RunUntil(batch.Forever)

	if len(s.book.recs) != 0 || held(eng, "byID") != len(want) {
		t.Fatalf("before retirement the ledger holds %d records and the scheduler %d jobs; want 0 and %d",
			len(s.book.recs), held(eng, "byID"), len(want))
	}
	before := map[int][]byte{}
	for id, state := range want {
		body := mustCall(t, h, http.MethodGet, fmt.Sprintf("/v1/jobs/%d", id), nil, http.StatusOK)
		var v JobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.State != state || v.Explain == nil || v.SubmitWallMS == 0 || (id != queued && v.DispatchWallMS == 0) {
			t.Fatalf("job %d (%s) before retirement: %s", id, state, body)
		}
		if (id == low) != (v.Preemptions == 1) {
			t.Fatalf("job %d: %d preemptions; only low (job %d) is preempted, once: %s", id, v.Preemptions, low, body)
		}
		before[id] = body
	}

	eng.RetireTo(&s.book)
	if len(s.book.recs) != len(want) || held(eng, "byID") != 0 || len(s.book.live) != 0 {
		t.Fatalf("after retirement the ledger holds %d records, the scheduler %d jobs, the live map %d; want %d, 0, 0",
			len(s.book.recs), held(eng, "byID"), len(s.book.live), len(want))
	}
	for id := range want {
		after := mustCall(t, h, http.MethodGet, fmt.Sprintf("/v1/jobs/%d", id), nil, http.StatusOK)
		if !bytes.Equal(before[id], after) {
			t.Errorf("job %d answers differently once retired:\n before %s after  %s", id, before[id], after)
		}
		// A retired job is terminal, not unknown.
		mustCall(t, h, http.MethodDelete, fmt.Sprintf("/v1/jobs/%d", id), nil, http.StatusConflict)
	}
}

// TestRetiringReportMatchesKeepingReport drives one sequence of submits,
// cancels and clock advances through a server (which retires) and
// through a bare engine (which never does), more jobs than the ledger
// holds — once under fair-share with a fault storm and proactive
// checkpoints, once under EASY with preemption, time slices and
// suspend-to-host. The two final reports print the same bytes and count
// the same, so every balance pinned on a keeping scheduler's report
// (busy ≡ work + overhead + lost work among them) holds over retired
// jobs too; the server's report lists the most recent finishers, the
// engine's all of them.
func TestRetiringReportMatchesKeepingReport(t *testing.T) {
	const (
		nodes = 8
		jobs  = batch.LedgerCapacity + 500
		step  = 8 * time.Minute
	)
	for _, tc := range []struct {
		name      string
		config    func() batch.Config
		exercised func(batch.Report) bool
	}{
		{"fairshare+faults", func() batch.Config {
			return batch.Config{
				Cluster:            testCluster(nodes),
				Policy:             batch.FairShare,
				TrunkSlowdown:      1.1,
				Faults:             batch.GenFaultPlan(7, nodes, 400*time.Hour, 6*time.Hour),
				CheckpointInterval: 2 * time.Minute,
			}
		}, func(r batch.Report) bool {
			return r.NodeFaults > 0 && r.Banks > 0 && r.LostWork > 0 && r.Faulted > 0 && len(r.UserNodeTime) == 3
		}},
		{"easy+preempt+quantum+host", func() batch.Config {
			return batch.Config{
				Cluster:       testCluster(nodes),
				Policy:        batch.Backfill,
				Preempt:       true,
				Quantum:       4 * time.Minute,
				SuspendToHost: true,
				// Cheap enough that suspending a victim is never futile.
				CheckpointCost: func(*batch.Job) time.Duration { return 2 * time.Second },
				RestoreCost:    func(*batch.Job) time.Duration { return time.Second },
			}
		}, func(r batch.Report) bool {
			return r.Preempted > 0 && r.Sliced > 0 && r.HostSuspends > 0 && r.Backfilled > 0
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Batch: tc.config(), Clock: batch.VirtualClock{}})
			h := s.Handler()
			bare := tc.config()
			bare.Recorder = &batch.RingRecorder{} // as the server's engine has one
			e := batch.NewEngine(bare, nil)

			rng := rand.New(rand.NewSource(3))
			for n := 1; n <= jobs; n++ {
				spec := JobSpec{
					Name:       fmt.Sprintf("j%d", n),
					Kind:       []string{"lbm", "cg", "pde"}[rng.Intn(3)],
					Nodes:      1 + rng.Intn(4),
					Priority:   rng.Intn(3),
					EstSeconds: float64(30 + rng.Intn(270)),
				}
				user := fmt.Sprintf("u%d", rng.Intn(3))
				body, _ := json.Marshal(spec)
				req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
				req.Header.Set("X-User", user)
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				kind, _ := parseKind(spec.Kind)
				id, err := e.Ingest(&batch.Job{Name: spec.Name, Kind: kind, Nodes: spec.Nodes, Priority: spec.Priority,
					User: user, Est: time.Duration(spec.EstSeconds * float64(time.Second))})
				var v JobView
				if uerr := json.Unmarshal(w.Body.Bytes(), &v); w.Code != http.StatusCreated || uerr != nil || err != nil || v.ID != id {
					t.Fatalf("submit %d: server HTTP %d job %d (%v), engine job %d (%v)", n, w.Code, v.ID, uerr, id, err)
				}
				if n%7 == 0 {
					// Withdraw a recent job, terminal already or not: a refusal
					// is a no-op on both sides.
					victim := id - rng.Intn(5)
					code := call(h, http.MethodDelete, fmt.Sprintf("/v1/jobs/%d", victim), nil).Code
					if err := e.Cancel(victim); (err == nil) != (code == http.StatusOK) {
						t.Fatalf("cancel %d: server HTTP %d, engine %v", victim, code, err)
					}
				}
				if n%8 == 0 {
					until := time.Duration(n/8) * step
					s.Engine().RunUntil(until)
					e.RunUntil(until)
				}
			}
			s.Engine().RunUntil(batch.Forever)
			got, err := s.Shutdown(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want := e.Run()

			if got.String() != want.String() {
				t.Errorf("the retiring server's report differs from the keeping engine's:\n--- server\n%s--- engine\n%s", got, want)
			}
			if got.Counters != want.Counters {
				t.Errorf("counters differ:\nserver %+v\nengine %+v", got.Counters, want.Counters)
			}
			if !reflect.DeepEqual(got.JobTotals, want.JobTotals) {
				t.Errorf("job totals differ:\nserver %+v\nengine %+v", got.JobTotals, want.JobTotals)
			}
			if want.Canceled == 0 || want.CheckpointOverhead == 0 || !tc.exercised(want) {
				t.Fatalf("the sequence exercised too little:\n%s", want)
			}
			if want.Finished != jobs || len(want.Jobs) != jobs || len(got.Jobs) != batch.LedgerCapacity {
				t.Fatalf("engine finished %d and lists %d of %d jobs; server lists %d, want the ledger's %d",
					want.Finished, len(want.Jobs), jobs, len(got.Jobs), batch.LedgerCapacity)
			}
			tail := want.Jobs[len(want.Jobs)-len(got.Jobs):]
			for i, g := range got.Jobs {
				w := tail[i]
				if g.ID != w.ID || g.Name != w.Name || g.User != w.User || g.Kind != w.Kind || g.Nodes != w.Nodes ||
					g.Priority != w.Priority || g.State != w.State || g.Start != w.Start || g.End != w.End ||
					g.Wait() != w.Wait() || g.Estimate() != w.Estimate() || g.Detail != w.Detail ||
					g.Preemptions() != w.Preemptions() || g.TimeSlices() != w.TimeSlices() {
					t.Fatalf("listed job %d of %d: server has %+v, engine's completion order has %+v", i, len(got.Jobs), g, w)
				}
				if ge, we := got.Explain(g.ID), want.Explain(w.ID); !reflect.DeepEqual(ge, we) {
					t.Fatalf("job %d explains as %+v from the ledger, %+v from the scheduler", g.ID, ge, we)
				}
			}
		})
	}
}

// TestServeHostileJobIDs: whatever a client puts where a job ID goes,
// GET and DELETE answer 400 or 404 — never a panic, never another job —
// and the 404 says which kind of absent the ID is.
func TestServeHostileJobIDs(t *testing.T) {
	s := New(Config{
		Batch: batch.Config{Cluster: testCluster(4), Policy: batch.Backfill},
		Clock: batch.VirtualClock{},
	})
	h := s.Handler()
	newest := 0
	for newest < batch.LedgerCapacity+8 { // job 1's record is overwritten
		for i := 0; i < 8; i++ {
			newest = submit(t, h, JobSpec{Kind: "pde", Nodes: 2, EstSeconds: 60})
		}
		s.Engine().RunUntil(batch.Forever)
	}
	const never, aged = "no such job", "aged out"
	for _, tc := range []struct {
		id   string
		code int
		msg  string
	}{
		{"0", http.StatusNotFound, never},
		{"-1", http.StatusNotFound, never},
		{fmt.Sprint(1 << 62), http.StatusNotFound, never},
		{fmt.Sprint(newest + 1), http.StatusNotFound, never},
		{"1", http.StatusNotFound, aged},
		{"007", http.StatusBadRequest, "bad job id"},
		{"+7", http.StatusBadRequest, "bad job id"},
		{"1e3", http.StatusBadRequest, "bad job id"},
		{"99999999999999999999", http.StatusBadRequest, "bad job id"},
		{"abc", http.StatusBadRequest, "bad job id"},
	} {
		for _, method := range []string{http.MethodGet, http.MethodDelete} {
			w := call(h, method, "/v1/jobs/"+tc.id, nil)
			var ev errorView
			if err := json.Unmarshal(w.Body.Bytes(), &ev); w.Code != tc.code || err != nil || !strings.Contains(ev.Error, tc.msg) {
				t.Errorf("%s /v1/jobs/%s: HTTP %d %q (%v), want %d mentioning %q", method, tc.id, w.Code, ev.Error, err, tc.code, tc.msg)
			}
		}
	}
	// The oldest record the ledger still holds, and the newest job.
	for _, id := range []int{newest - batch.LedgerCapacity + 1, newest} {
		mustCall(t, h, http.MethodGet, fmt.Sprintf("/v1/jobs/%d", id), nil, http.StatusOK)
		mustCall(t, h, http.MethodDelete, fmt.Sprintf("/v1/jobs/%d", id), nil, http.StatusConflict)
	}
}

// TestServeConcurrentWithRetiringPump: submitters, readers and cancelers
// work the front door while the pump completes — and so retires — jobs
// under them. Every answer is one the API documents, a job's view never
// changes once it has been seen terminal, and at the end every accepted
// job is in the ledger and none is left anywhere else.
func TestServeConcurrentWithRetiringPump(t *testing.T) {
	const submitters, perSubmitter = 4, 120
	s, base := startServer(t, Config{
		Batch:    batch.Config{Cluster: testCluster(8), Policy: batch.Backfill},
		Compress: 50_000, // a 20 s job lasts 0.4 ms of wall time
	})
	var (
		newest   atomic.Int64
		accepted atomic.Int64
		stop     = make(chan struct{})
		final    sync.Map // job ID -> the first view seen of it in a terminal state
		work     sync.WaitGroup
		watch    sync.WaitGroup
	)
	terminal := func(state string) bool { return state == "done" || state == "failed" || state == "canceled" }
	for g := 0; g < submitters; g++ {
		work.Add(1)
		go func(g int) {
			defer work.Done()
			c := &Client{Base: base, User: fmt.Sprintf("u%d", g)}
			for i := 0; i < perSubmitter; i++ {
				v, err := c.Submit(JobSpec{Name: fmt.Sprintf("g%d-%d", g, i), Kind: "pde", Nodes: 1 + (g+i)%4, EstSeconds: float64(1 + i%20)})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				accepted.Add(1)
				for id := int64(v.ID); ; {
					if cur := newest.Load(); cur >= id || newest.CompareAndSwap(cur, id) {
						break
					}
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		watch.Add(1)
		go func(g int) {
			defer watch.Done()
			c := &Client{Base: base}
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				// IDs are dense, so every ID up to the number of submits
				// answered so far is a job: only a higher one may be a 404.
				assigned := int(accepted.Load())
				id := 1 + rng.Intn(int(newest.Load())+3)
				var apiErr *APIError
				if g == 0 {
					// One of the four cancels instead of reading.
					_, err := c.Cancel(id)
					if err != nil && !(errors.As(err, &apiErr) && (apiErr.Status == http.StatusConflict ||
						apiErr.Status == http.StatusNotFound && id > assigned)) {
						t.Errorf("cancel %d: %v", id, err)
					}
					continue
				}
				v, err := c.Job(id)
				switch {
				case err == nil && v.ID == id:
					if !terminal(v.State) {
						continue
					}
					if first, seen := final.LoadOrStore(id, v); seen && !reflect.DeepEqual(first, v) {
						t.Errorf("job %d changed after it was terminal:\n first %+v\n later %+v", id, first, v)
					}
				case errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound && id > assigned:
					// Not assigned yet.
				default:
					t.Errorf("job %d: %+v, %v", id, v, err)
				}
			}
		}(g)
	}
	work.Wait()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if qs := s.Engine().Snapshot(); qs.Queued+qs.Running == 0 && qs.Finished == int(accepted.Load()) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs still live long after the last submit: %+v", s.Engine().Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	watch.Wait()

	s.book.mu.Lock()
	live, recs := len(s.book.live), len(s.book.recs)
	s.book.mu.Unlock()
	if n := int(accepted.Load()); live != 0 || recs != n || n != submitters*perSubmitter {
		t.Fatalf("%d accepted: the live map holds %d, the ledger %d; want 0 and all of them", n, live, recs)
	}
	rep := s.Engine().Report()
	if rep.Finished != recs || len(rep.Jobs) != recs {
		t.Fatalf("report counts %d and lists %d of %d jobs", rep.Finished, len(rep.Jobs), recs)
	}
}
