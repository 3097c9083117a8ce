package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"gpucluster/internal/batch"
	"gpucluster/internal/netsim"
)

// stoppedClock freezes virtual time at zero: ingested jobs dispatch
// (or queue) immediately but nothing ever completes, so lifecycle
// states are deterministic under test.
type stoppedClock struct{}

func (stoppedClock) Now() time.Duration { return 0 }

func testCluster(n int) *batch.Cluster {
	return batch.NewCluster(n, netsim.GigabitSwitch(n))
}

// startServer boots a server on a loopback listener and tears it down
// with the test.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s := New(cfg)
	return s, serve(t, s)
}

// serve runs s on a loopback listener until the test ends and returns
// its base URL.
func serve(t *testing.T, s *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := s.Serve(l); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return "http://" + l.Addr().String()
}

func wantStatus(t *testing.T, err error, code int) {
	t.Helper()
	apiErr, ok := err.(*APIError)
	if !ok {
		t.Fatalf("want HTTP %d error, got %v", code, err)
	}
	if apiErr.Status != code {
		t.Fatalf("want HTTP %d, got %d (%s)", code, apiErr.Status, apiErr.Msg)
	}
}

// TestServeAuthAndLifecycle walks the token-auth front door: 401 on
// missing/bad tokens, owner-only cancel, 404/409 on the cancel edge
// cases, and 400 on malformed specs.
func TestServeAuthAndLifecycle(t *testing.T) {
	_, base := startServer(t, Config{
		Batch:  batch.Config{Cluster: testCluster(4)},
		Clock:  stoppedClock{},
		Tokens: map[string]string{"tok-ana": "ana", "tok-bo": "bo"},
	})
	anon := &Client{Base: base}
	ana := &Client{Base: base, Token: "tok-ana"}
	bo := &Client{Base: base, Token: "tok-bo"}

	if _, err := anon.Submit(JobSpec{Nodes: 1}); err == nil {
		t.Fatal("unauthenticated submit accepted")
	} else {
		wantStatus(t, err, http.StatusUnauthorized)
	}
	if _, err := (&Client{Base: base, Token: "bogus"}).Queue(); err == nil {
		t.Fatal("bad token accepted")
	} else {
		wantStatus(t, err, http.StatusUnauthorized)
	}

	v, err := ana.Submit(JobSpec{Name: "anas", Kind: "pde", Nodes: 2, EstSeconds: 60})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if v.User != "ana" || v.State != "running" || v.Nodes != 2 {
		t.Fatalf("submitted view: %+v", v)
	}

	// Reads are open to any authenticated user; cancel is owner-only.
	if _, err := bo.Job(v.ID); err != nil {
		t.Fatalf("cross-user read: %v", err)
	}
	if _, err := bo.Cancel(v.ID); err == nil {
		t.Fatal("cross-user cancel accepted")
	} else {
		wantStatus(t, err, http.StatusForbidden)
	}
	cv, err := ana.Cancel(v.ID)
	if err != nil || cv.State != "canceled" {
		t.Fatalf("owner cancel: %+v, %v", cv, err)
	}
	if _, err := ana.Cancel(v.ID); err == nil {
		t.Fatal("double cancel accepted")
	} else {
		wantStatus(t, err, http.StatusConflict)
	}
	if _, err := ana.Cancel(999); err == nil {
		t.Fatal("cancel of unknown job accepted")
	} else {
		wantStatus(t, err, http.StatusNotFound)
	}

	if _, err := ana.Submit(JobSpec{Kind: "quantum", Nodes: 1}); err == nil {
		t.Fatal("unknown kind accepted")
	} else {
		wantStatus(t, err, http.StatusBadRequest)
	}
	if _, err := ana.Submit(JobSpec{Nodes: 0}); err == nil {
		t.Fatal("zero-node job accepted")
	} else {
		wantStatus(t, err, http.StatusBadRequest)
	}
	if err := ana.do(http.MethodGet, "/v1/jobs/abc", nil, nil); err == nil {
		t.Fatal("non-numeric job id accepted")
	} else {
		wantStatus(t, err, http.StatusBadRequest)
	}
}

// TestServeQuota pins the 429 admission path: per-user max-queued and
// node-seconds bounds, quota released by cancel, and per-user
// overrides.
func TestServeQuota(t *testing.T) {
	_, base := startServer(t, Config{
		Batch: batch.Config{Cluster: testCluster(2)},
		Clock: stoppedClock{},
		Quota: Quota{MaxQueued: 2},
		UserQuotas: map[string]Quota{
			"tiny": {MaxNodeSeconds: 100},
			"vip":  {MaxQueued: 100},
		},
	})
	ana := &Client{Base: base, User: "ana"}
	spec := JobSpec{Kind: "lbm", Nodes: 1, EstSeconds: 60}
	first, err := ana.Submit(spec)
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	if _, err := ana.Submit(spec); err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	_, err = ana.Submit(spec)
	if err == nil {
		t.Fatal("third submit passed a MaxQueued=2 quota")
	}
	wantStatus(t, err, http.StatusTooManyRequests)
	if apiErr := err.(*APIError); !apiErr.IsQuota() {
		t.Fatalf("IsQuota false on %v", err)
	}

	// Independent users have independent budgets; the vip override
	// lifts the default.
	for i, u := range []string{"bo", "vip", "vip", "vip"} {
		if _, err := (&Client{Base: base, User: u}).Submit(spec); err != nil {
			t.Fatalf("submit %d as %s: %v", i, u, err)
		}
	}

	// 2 nodes x 60s = 120 node-seconds > the tiny user's 100.
	_, err = (&Client{Base: base, User: "tiny"}).Submit(JobSpec{Kind: "lbm", Nodes: 2, EstSeconds: 60})
	if err == nil {
		t.Fatal("node-seconds quota did not trip")
	}
	wantStatus(t, err, http.StatusTooManyRequests)

	// Canceling frees the slot.
	if _, err := ana.Cancel(first.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if _, err := ana.Submit(spec); err != nil {
		t.Fatalf("submit after cancel: %v", err)
	}
}

// TestServeQueueAndExplain checks the introspection endpoints: the
// queue snapshot's ordering and counts, and the per-job explain
// breakdown riding the job view.
func TestServeQueueAndExplain(t *testing.T) {
	_, base := startServer(t, Config{
		Batch: batch.Config{Cluster: testCluster(4), Policy: batch.Backfill},
		Clock: stoppedClock{},
	})
	c := &Client{Base: base, User: "ana"}
	wide, err := c.Submit(JobSpec{Kind: "pde", Nodes: 4, EstSeconds: 600})
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := c.Submit(JobSpec{Kind: "pde", Nodes: 4, EstSeconds: 60})
	if err != nil {
		t.Fatal(err)
	}
	q, err := c.Queue()
	if err != nil {
		t.Fatal(err)
	}
	if q.Running != 1 || q.Queued != 1 || len(q.Jobs) != 2 {
		t.Fatalf("queue view: %+v", q)
	}
	if q.Jobs[0].ID != blocked.ID || q.Jobs[0].State != "queued" ||
		q.Jobs[1].ID != wide.ID || q.Jobs[1].State != "running" {
		t.Fatalf("queue ordering: %+v", q.Jobs)
	}
	// The blocked job has at least one recorded blocked pass with a
	// reason — the explain surface served over HTTP.
	jv, err := c.Job(blocked.ID)
	if err != nil {
		t.Fatal(err)
	}
	if jv.Explain == nil || jv.Explain.BlockedPasses < 1 || len(jv.Explain.Blockers) == 0 {
		t.Fatalf("explain breakdown missing: %+v", jv.Explain)
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE batch_jobs_submitted_total counter", "batch_queue_depth"} {
		if !strings.Contains(m, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, m)
		}
	}
}

// TestServeSlamE2E is the full daemon exercise: a synthetic SWF trace
// replayed by 8 concurrent submitters at high compression against the
// wall-clock engine, with a deterministic per-user quota rejection
// lane, live metrics scraped mid-run, and a subset of jobs canceled
// mid-flight. Every accepted job must reach a terminal state and the
// final report must balance.
func TestServeSlamE2E(t *testing.T) {
	const nodes, compress = 8, 5000
	var buf bytes.Buffer
	if err := batch.WriteSyntheticSWF(&buf, 11, 80, 4, nodes, 5); err != nil {
		t.Fatal(err)
	}
	recs, err := batch.ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	wantRejected := 0
	for _, r := range recs {
		if r.User == "u1" {
			wantRejected++
		}
	}
	if wantRejected == 0 {
		t.Fatal("trace has no u1 jobs; the rejection lane is empty")
	}

	srv, base := startServer(t, Config{
		Batch:    batch.Config{Cluster: testCluster(nodes), Policy: batch.Backfill},
		Compress: compress,
		// Every u1 submit prices at least 1 node-second — the whole
		// user is a deterministic 429 lane.
		UserQuotas: map[string]Quota{"u1": {MaxNodeSeconds: 0.5}},
	})

	done := make(chan struct{})
	var res SlamResult
	var slamErr error
	go func() {
		defer close(done)
		res, slamErr = Slam(SlamConfig{
			Base: base, Trace: recs, Submitters: 8,
			Compress: compress, MaxNodes: nodes, Timeout: 90 * time.Second,
		})
	}()

	// Mid-run: wait for a live backlog, scrape metrics, cancel a
	// couple of queued jobs through the front door.
	c := &Client{Base: base}
	waitDeadline := time.Now().Add(20 * time.Second)
	for {
		q, err := c.Queue()
		if err == nil && q.Queued > 2 {
			break
		}
		if time.Now().After(waitDeadline) {
			t.Fatal("queue never backed up under slam load")
		}
		time.Sleep(2 * time.Millisecond)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatalf("mid-run metrics scrape: %v", err)
	}
	for _, want := range []string{"batch_jobs_submitted_total", "batch_queue_depth", "batch_scheduler_passes_total"} {
		if !strings.Contains(m, want) {
			t.Fatalf("mid-run metrics missing %q", want)
		}
	}
	canceled := 0
	for attempts := 0; canceled < 2 && attempts < 50; attempts++ {
		q, err := c.Queue()
		if err != nil {
			t.Fatalf("queue: %v", err)
		}
		for _, j := range q.Jobs {
			if j.State != "queued" {
				continue
			}
			if _, err := c.Cancel(j.ID); err == nil {
				canceled++
				if canceled >= 2 {
					break
				}
			}
		}
	}
	if canceled == 0 {
		t.Fatal("no mid-flight cancel landed")
	}

	<-done
	if slamErr != nil {
		t.Fatalf("slam: %v", slamErr)
	}
	if res.Submitted != len(recs) || res.Rejected != wantRejected ||
		res.Accepted != len(recs)-wantRejected {
		t.Fatalf("slam accounting: %+v, want %d submitted / %d rejected", res, len(recs), wantRejected)
	}
	if res.JobsPerSec <= 0 || res.Wall <= 0 {
		t.Fatalf("slam throughput: %+v", res)
	}
	if res.P99 < res.P50 {
		t.Fatalf("latency percentiles inverted: %+v", res)
	}

	// Slam already drove every accepted job to a terminal state; the
	// queue must be empty and the report must balance.
	qs := srv.Engine().Snapshot()
	if qs.Queued != 0 || qs.Running != 0 {
		t.Fatalf("jobs still live after slam: %+v", qs)
	}
	rep := srv.Engine().Report()
	if len(rep.Jobs) != res.Accepted {
		t.Fatalf("report holds %d jobs, want %d", len(rep.Jobs), res.Accepted)
	}
	if rep.Canceled != canceled {
		t.Fatalf("report canceled %d, want %d", rep.Canceled, canceled)
	}
	terminal := 0
	for _, j := range rep.Jobs {
		switch j.State {
		case batch.Done, batch.Failed, batch.Canceled:
			terminal++
		}
	}
	if terminal != res.Accepted {
		t.Fatalf("%d of %d accepted jobs terminal", terminal, res.Accepted)
	}
}

// TestServerDefaultRecorderBounded runs ten times the ring's capacity
// of jobs through a server with no recorder configured. What the daemon
// keeps of its event stream stays within the ring — the most recent
// lifecycle events, in order, no blocked-pass events — while explain,
// served from the per-job counters, still accounts for every pass. The
// jobs themselves are bounded too (TestServerPerJobStateBounded): the
// final report counts them all and lists the ledger's worth.
func TestServerDefaultRecorderBounded(t *testing.T) {
	const wave, jobs = 8, 10 * batch.RingCapacity
	s := New(Config{
		Batch: batch.Config{Cluster: testCluster(4), Policy: batch.Backfill},
		Clock: batch.VirtualClock{},
	})
	h := s.Handler()
	do := func(method, path string, body []byte, want int) JobView {
		t.Helper()
		var v JobView
		if err := json.Unmarshal(mustCall(t, h, method, path, body, want), &v); err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		return v
	}
	spec, err := json.Marshal(JobSpec{Kind: "pde", Nodes: 4, EstSeconds: 60})
	if err != nil {
		t.Fatal(err)
	}
	var last JobView
	for n := 0; n < jobs; n += wave {
		// Each job fills the machine, so a wave runs one at a time and the
		// last of it is passed over at least once per job ahead of it.
		for i := 0; i < wave; i++ {
			last = do(http.MethodPost, "/v1/jobs", spec, http.StatusCreated)
		}
		s.Engine().RunUntil(batch.Forever)
		if n%(jobs/4) != 0 {
			continue
		}
		v := do(http.MethodGet, fmt.Sprintf("/v1/jobs/%d", last.ID), nil, http.StatusOK)
		if v.State != "done" || v.Explain == nil || v.Explain.BlockedPasses < wave-1 ||
			len(v.Explain.Blockers) != 1 || v.Explain.Blockers[0].Reason != batch.ReasonNoPlacement.String() ||
			v.Explain.Blockers[0].Passes != v.Explain.BlockedPasses {
			t.Fatalf("job %d after %d jobs: state %s, explain %+v", last.ID, n+wave, v.State, v.Explain)
		}
	}

	rep, err := s.Shutdown(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Re-pinned on purpose when terminal jobs began to leave the daemon
	// (it read len(rep.Jobs) == jobs): the report counts every job and
	// lists the ones the ledger still holds.
	if rep.Finished != jobs || len(rep.Jobs) != batch.LedgerCapacity || rep.Jobs[len(rep.Jobs)-1].ID != last.ID {
		t.Fatalf("report counts %d jobs and lists %d, the newest job %d; want %d counted, the ledger's %d listed, newest %d",
			rep.Finished, len(rep.Jobs), rep.Jobs[len(rep.Jobs)-1].ID, jobs, batch.LedgerCapacity, last.ID)
	}
	if len(rep.Events) != batch.RingCapacity {
		t.Fatalf("report holds %d events after %d jobs, want the ring's %d", len(rep.Events), jobs, batch.RingCapacity)
	}
	// Record order: the clock never runs backwards, and each job goes
	// submit, dispatch, segment end, complete — ascending kinds.
	lastKind := map[int]batch.EventKind{}
	for i, ev := range rep.Events {
		if ev.Kind == batch.EvBlocked {
			t.Fatalf("event %d: the ring kept a blocked-pass event: %+v", i, ev)
		}
		if i > 0 && ev.Time < rep.Events[i-1].Time {
			t.Fatalf("events %d and %d out of record order: %+v then %+v", i-1, i, rep.Events[i-1], ev)
		}
		if k, seen := lastKind[ev.Job]; seen && ev.Kind <= k {
			t.Fatalf("event %d: job %d records %v after %v", i, ev.Job, ev.Kind, k)
		}
		lastKind[ev.Job] = ev.Kind
	}
	if ev := rep.Events[len(rep.Events)-1]; ev.Kind != batch.EvComplete || ev.Job != last.ID {
		t.Fatalf("newest event is %+v, want the completion of job %d", ev, last.ID)
	}
	if e := rep.Explain(last.ID); e.BlockedPasses < wave-1 || e.Dominant() != batch.ReasonNoPlacement {
		t.Fatalf("report explains job %d as %s", last.ID, e)
	}
}

// TestServeSlowHeaderDropped: a client that opens a connection and
// never finishes its request headers is cut off at the header timeout
// instead of holding the connection for as long as it likes.
func TestServeSlowHeaderDropped(t *testing.T) {
	s := New(Config{Batch: batch.Config{Cluster: testCluster(4)}, Clock: stoppedClock{}})
	s.readHeaderTimeout = 50 * time.Millisecond
	base := serve(t, s)

	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /v1/queue HTTP/1.1\r\nHost: slow\r\n")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	n, err := conn.Read(make([]byte, 512))
	if err == nil {
		t.Fatalf("server answered an unfinished request with %d bytes", n)
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open %v after the %v header timeout", time.Since(start), s.readHeaderTimeout)
	}
	// The listener itself is unharmed.
	if _, err := (&Client{Base: base}).Queue(); err != nil {
		t.Fatalf("queue after a dropped slow client: %v", err)
	}
}

// TestServeOversizeBodyRefused: a submit body over the limit is refused
// with 413 after reading no more than the limit, and admits nothing.
func TestServeOversizeBodyRefused(t *testing.T) {
	_, base := startServer(t, Config{Batch: batch.Config{Cluster: testCluster(4)}, Clock: stoppedClock{}})
	c := &Client{Base: base, User: "ana"}
	// The name alone fills the limit; the rest of the spec overruns it.
	_, err := c.Submit(JobSpec{Name: strings.Repeat("x", maxSubmitBytes), Nodes: 1})
	if err == nil {
		t.Fatal("oversize submit accepted")
	}
	wantStatus(t, err, http.StatusRequestEntityTooLarge)
	q, err := c.Queue()
	if err != nil {
		t.Fatal(err)
	}
	if q.Queued+q.Running+q.Finished != 0 {
		t.Fatalf("oversize submit left a job behind: %+v", q)
	}
	if _, err := c.Submit(JobSpec{Name: strings.Repeat("x", 1024), Nodes: 1}); err != nil {
		t.Fatalf("submit under the limit: %v", err)
	}
}
