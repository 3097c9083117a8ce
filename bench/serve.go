package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"gpucluster/internal/batch"
	"gpucluster/internal/batch/server"
	"gpucluster/internal/netsim"
)

// The serve-mix traffic: an open loop at a fixed rate, each request
// timed from the instant it was due.
const (
	serveRate     = 300 // requests per second
	serveNodes    = 64
	serveCompress = 1000 // one wall millisecond is one virtual second
	serveSLO      = 10 * time.Millisecond
	serveTimeout  = 2 * time.Second
	serveConns    = 4
	// serveBacklog jobs as wide as the whole machine sit queued behind a
	// pinned one-node job for the whole run: a backlog that neither
	// grows nor drains, so every scheduling pass explains that many
	// blocked jobs to the recorder, as a busy daemon's passes do.
	serveBacklog = 8
	// cappedUser owns the backlog and is held at its quota by it, so
	// each of its submits is refused: the designed 429 share.
	cappedUser  = "capped"
	cappedShare = 0.04
)

type route int

const (
	routeSubmit route = iota
	routeStatus
	routeQueue
	routeCancel
	numRoutes
)

var routeName = [numRoutes]string{"submit", "status", "queue", "cancel"}

// request is one entry of the seeded schedule.
type request struct {
	route route
	due   time.Duration // offset from the start of the window
	user  string
	spec  server.JobSpec // submits
	// refused is the reference outcome of a submit: the capped user's
	// are answered 429, everyone else's 201.
	refused bool
	pick    float64 // status, cancel: which accepted job, in [0,1)
}

// outcome is what the load generator saw of one request.
type outcome struct {
	status  int           // HTTP status; 0 for a transport error or time-out
	latency time.Duration // from the due instant to the response
	late    time.Duration // how long after the due instant it was sent
	view    server.JobView
	queued  int // /v1/queue: jobs queued
}

// expected reports whether the status is one the schedule allows, and
// whether the request counts as served rather than refused.
func (r request) expected(status int) (ok, served bool) {
	switch r.route {
	case routeSubmit:
		if r.refused {
			return status == http.StatusTooManyRequests, false
		}
		return status == http.StatusCreated, true
	case routeCancel:
		// The job may have finished first: 409 is the daemon's answer.
		return status == http.StatusOK || status == http.StatusConflict, true
	}
	return status == http.StatusOK, true
}

// schedule draws n requests at serveRate from rng: 65% submits (half
// leaving the estimate to the scheduler), 20% status, 5% queue, 10% cancel.
func schedule(rng *rand.Rand, n int) []request {
	kinds := []string{"lbm", "cg", "pde"}
	reqs := make([]request, n)
	for i := range reqs {
		r := request{due: time.Duration(i) * time.Second / serveRate, pick: rng.Float64()}
		switch p := rng.Float64(); {
		case p < 0.65:
			r.route = routeSubmit
			r.user = fmt.Sprintf("u%d", rng.Intn(3))
			if rng.Float64() < cappedShare {
				r.user, r.refused = cappedUser, true
			}
			r.spec = server.JobSpec{
				Name:     fmt.Sprintf("mix-%d", i),
				Kind:     kinds[rng.Intn(len(kinds))],
				Nodes:    1 + rng.Intn(4),
				Priority: 1 + rng.Intn(3),
				Steps:    100 + rng.Intn(200),
			}
			if rng.Intn(2) == 0 {
				r.spec.EstSeconds = 30 + 60*rng.Float64()
			}
		case p < 0.85:
			r.route = routeStatus
		case p < 0.90:
			r.route = routeQueue
		default:
			r.route = routeCancel
		}
		reqs[i] = r
	}
	return reqs
}

// serveMix is the serve-mix workload: the daemon with its defaults on a
// loopback listener, driven through HTTP.
type serveMix struct {
	tr      *tracer
	srv     *server.Server
	ln      net.Listener
	done    chan error // Serve's return
	reqs    []request
	clients []*server.Client
	tracks  []*track

	mu       sync.Mutex
	accepted []int // job IDs of accepted submits, in acceptance order

	outcomes []outcome
	window   time.Duration
	events   int // recorded events at shutdown; -1 while the daemon runs
}

func setupServeMix(p params, tr *tracer) (runner, error) {
	s := &serveMix{tr: tr, events: -1}
	window, warm := time.Duration(p.seconds)*time.Second, 500*time.Millisecond
	if p.quick {
		window, warm = 500*time.Millisecond, 50*time.Millisecond
	}
	rng := rand.New(rand.NewSource(p.seed))
	warmReqs := schedule(rng, int(warm*serveRate/time.Second))
	s.reqs = schedule(rng, int(window*serveRate/time.Second))

	s.srv = server.New(server.Config{
		Batch: batch.Config{
			Cluster:       batch.NewCluster(serveNodes, netsim.GigabitSwitch(serveNodes)),
			Policy:        batch.Backfill,
			TrunkSlowdown: 1.1,
		},
		Compress:   serveCompress,
		UserQuotas: map[string]server.Quota{cappedUser: {MaxQueued: serveBacklog}},
	})
	var err error
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	s.done = make(chan error, 1)
	go func() { s.done <- s.srv.Serve(s.ln) }()

	// One connection per generator goroutine. They sleep until a request
	// is due and then wait on the socket, so their number is set by how
	// many slow requests the open loop must be able to pass, not by cores.
	for w := 0; w < serveConns; w++ {
		s.clients = append(s.clients, &server.Client{Base: "http://" + s.ln.Addr().String(), HTTP: &http.Client{
			Timeout:   serveTimeout,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		}})
		s.tracks = append(s.tracks, tr.newTrack(fmt.Sprintf("conn %d", w)))
	}

	// The pinned job and the backlog behind it.
	cl := s.clients[0]
	cl.User = "pin"
	if _, err := cl.Submit(server.JobSpec{Name: "pin", Nodes: 1, Priority: 9, EstSeconds: 1e7}); err != nil {
		s.close()
		return nil, err
	}
	cl.User = cappedUser
	for i := 0; i < serveBacklog; i++ {
		if _, err := cl.Submit(server.JobSpec{Name: "backlog", Nodes: serveNodes, EstSeconds: 60}); err != nil {
			s.close()
			return nil, err
		}
	}
	cl.User = "u0"
	for i := 0; i < cancelSpan; i++ {
		v, err := cl.Submit(server.JobSpec{Name: "first", Nodes: 1, Priority: 1, EstSeconds: 30})
		if err != nil {
			s.close()
			return nil, err
		}
		s.accepted = append(s.accepted, v.ID)
	}
	for i, o := range s.drive(warmReqs, false) {
		if ok, _ := warmReqs[i].expected(o.status); !ok {
			s.close()
			return nil, fmt.Errorf("warm-up request %d (%s) got status %d", i, routeName[warmReqs[i].route], o.status)
		}
	}
	if p.corruptRef {
		// The reference of this workload is the expected status of each
		// request; one that expects the capped user to be served is wrong.
		for i := range s.reqs {
			s.reqs[i].refused = false
		}
	}
	return s, nil
}

// cancelSpan is how far back a cancel reaches among the accepted jobs.
const cancelSpan = 8

// target picks the job a status or cancel request addresses: any
// accepted job for a status, one of the cancelSpan most recent for a
// cancel (so that most are still queued or running).
func (s *serveMix) target(r request) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.accepted) // never under cancelSpan: set-up submits that many first
	if r.route == routeCancel {
		return s.accepted[n-1-int(r.pick*cancelSpan)]
	}
	return s.accepted[int(r.pick*float64(n))]
}

// drive sends reqs open-loop: generator goroutines take the next
// request in turn, sleep until it is due and send it, whether or not
// earlier ones have been answered. In a traced run every untracedEvery-th
// request is sent with its connection's track switched off.
func (s *serveMix) drive(reqs []request, traced bool) []outcome {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := range s.clients {
		wg.Add(1)
		go func(cl *server.Client, tk *track) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				due := start.Add(r.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				if tk != nil {
					tk.on, tk.op = traced && i%untracedEvery != untracedEvery-1, int32(i)
				}
				o := &out[i]
				if late := time.Since(due); late > 0 {
					o.late = late
				}
				sp := tk.begin("http." + routeName[r.route])
				var err error
				switch r.route {
				case routeSubmit:
					cl.User = r.user
					if o.view, err = cl.Submit(r.spec); err == nil && r.user != cappedUser {
						s.mu.Lock()
						s.accepted = append(s.accepted, o.view.ID)
						s.mu.Unlock()
					}
				case routeStatus:
					o.view, err = cl.Job(s.target(r))
				case routeQueue:
					var q server.QueueView
					q, err = cl.Queue()
					o.queued = q.Queued
				case routeCancel:
					o.view, err = cl.Cancel(s.target(r))
				}
				tk.end(sp)
				o.latency = time.Since(due)
				var apiErr *server.APIError
				switch {
				case err == nil && r.route == routeSubmit:
					o.status = http.StatusCreated
				case err == nil:
					o.status = http.StatusOK
				case errors.As(err, &apiErr):
					o.status = apiErr.Status
				}
			}
		}(s.clients[w], s.tracks[w])
	}
	wg.Wait()
	s.window = time.Since(start)
	return out
}

func (s *serveMix) timed(m *measure) {
	s.outcomes = s.drive(s.reqs, s.tr != nil)
	m.timed = s.window
	for i, o := range s.outcomes {
		m.attempted++
		ok, served := s.reqs[i].expected(o.status)
		switch {
		case !ok:
			m.failed++
		case served:
			m.work++
			if o.latency <= serveSLO {
				m.sloOK++
			}
		}
		if s.tr != nil && i%untracedEvery == untracedEvery-1 {
			m.untraced = append(m.untraced, o.latency)
		} else {
			m.ops = append(m.ops, o.latency)
		}
	}
}

func (s *serveMix) layers(m *measure) {
	var (
		byRoute          [numRoutes][]time.Duration
		late, pumpLag    []time.Duration
		depth            []int
		submits, refused int
	)
	for i, o := range s.outcomes {
		r := s.reqs[i]
		byRoute[r.route] = append(byRoute[r.route], o.latency)
		late = append(late, o.late)
		switch r.route {
		case routeSubmit:
			submits++
			if o.status == http.StatusTooManyRequests {
				refused++
			}
		case routeStatus:
			if v := o.view; v.DispatchWallMS > 0 {
				// How long after its virtual start instant the engine
				// pump took the dispatch, in wall time.
				lag := v.DispatchWallMS - v.StartMS/serveCompress
				pumpLag = append(pumpLag, time.Duration(lag*float64(time.Millisecond)))
			}
		case routeQueue:
			depth = append(depth, o.queued)
		}
	}
	m.set("server.submit_p50_ms", ms(quantile(byRoute[routeSubmit], 0.5)))
	m.set("server.submit_p90_ms", ms(quantile(byRoute[routeSubmit], 0.9)))
	m.set("server.status_p50_ms", ms(quantile(byRoute[routeStatus], 0.5)))
	m.set("server.status_p90_ms", ms(quantile(byRoute[routeStatus], 0.9)))
	m.set("server.queue_p50_ms", ms(quantile(byRoute[routeQueue], 0.5)))
	m.set("server.cancel_p50_ms", ms(quantile(byRoute[routeCancel], 0.5)))
	m.set("server.rejected_ratio", float64(refused)/float64(submits))
	m.set("harness.late_p99_ms", ms(quantile(late, 0.99)))
	m.set("batch.engine_pump_lag_p50_ms", ms(quantile(pumpLag, 0.5)))
	m.set("batch.queue_depth_p50", float64(quantile(depth, 0.5)))

	// Probe phase, at the end-of-run state. The handler without a
	// socket separates net/http and loopback from the handler's work.
	const probes = 40
	h := s.srv.Handler()
	spec, _ := json.Marshal(server.JobSpec{Name: "probe", Nodes: 1, Priority: 1, EstSeconds: 1})
	statusPath := fmt.Sprintf("/v1/jobs/%d", s.target(request{route: routeStatus, pick: 0.5}))
	t0 := time.Now()
	for i := 0; i < probes; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(spec))
		req.Header.Set("X-User", "probe")
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	m.set("server.handler_submit_us", us(time.Since(t0))/probes)
	t0 = time.Now()
	for i := 0; i < probes; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, statusPath, nil))
	}
	m.set("server.handler_status_us", us(time.Since(t0))/probes)

	eng := s.srv.Engine()
	t0 = time.Now()
	for i := 0; i < probes; i++ {
		if _, err := eng.Ingest(&batch.Job{Name: "probe", Nodes: 1, Priority: 1, User: "probe", Est: time.Second}); err != nil {
			panic(err) // a one-node job always fits
		}
	}
	m.set("batch.engine_ingest_us", us(time.Since(t0))/probes)
	t0 = time.Now()
	for i := 0; i < probes; i++ {
		if _, err := eng.Explain(2); err != nil { // the first backlog job: blocked in every pass
			panic(err)
		}
	}
	m.set("batch.engine_explain_ms", ms(time.Since(t0))/probes)
	t0 = time.Now()
	for i := 0; i < probes; i++ {
		eng.Snapshot()
	}
	m.set("batch.engine_snapshot_ms", ms(time.Since(t0))/probes)

	s.close()
	m.set("batch.recorded_events", float64(s.events))
	jobs := 1 + serveBacklog + 2*probes // accepted already counts set-up's first cancelSpan
	s.mu.Lock()
	jobs += len(s.accepted)
	s.mu.Unlock()
	m.set("batch.events_per_job", float64(s.events)/float64(jobs))
}

// close drains the daemon and waits for its listener goroutine.
func (s *serveMix) close() {
	if s.events >= 0 {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rep, _ := s.srv.Shutdown(ctx)
	s.ln.Close() // ends Serve even if Shutdown ran before it had started
	<-s.done
	for _, cl := range s.clients {
		cl.HTTP.CloseIdleConnections()
	}
	s.events = len(rep.Events)
}
