package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"gpucluster/internal/batch"
)

// FuzzSubmitJob posts raw bodies to the submit endpoint of a fresh
// server with a node-seconds quota. Whatever the body, the server must
// not panic and must answer 201, 400, 413 or 429. An accepted job must
// read back as submitted: its name, gang width, priority and kind, and,
// for a declared estimate, that estimate — to the nanosecond a Duration
// holds — never the model estimator's in its place.
func FuzzSubmitJob(f *testing.F) {
	for _, body := range []string{
		// The bodies server_test.go submits.
		`{"name":"anas","kind":"pde","nodes":2,"est_seconds":60}`,
		`{"kind":"lbm","nodes":1,"est_seconds":60}`,
		`{"kind":"lbm","nodes":2,"est_seconds":60}`,
		`{"kind":"pde","nodes":4,"est_seconds":600}`,
		`{"kind":"quantum","nodes":1}`,
		`{"nodes":0}`,
		`{"name":"pin","kind":"pde","nodes":1,"priority":9,"est_seconds":3e9}`,
		`{"name":"probe","nodes":1,"priority":1,"est_seconds":1}`,
		// Estimates that wrap, are negative, or fall below the floor.
		`{"nodes":1,"est_seconds":1e10}`,
		`{"nodes":1,"est_seconds":9.3e9}`,
		`{"nodes":1,"est_seconds":-1}`,
		`{"nodes":1,"est_seconds":1e-12}`,
		`{"nodes":1,"est_seconds":0.0005}`,
		`{"nodes":1,"est_seconds":1e400}`,
		// Steps whose model estimate overflows.
		`{"nodes":1,"steps":9223372036854775807}`,
		`{"kind":"cg","nodes":2,"steps":4611686018427387904}`,
		// Malformed and hostile bodies.
		``,
		`null`,
		`[]`,
		`{"nodes":1.5}`,
		`{"nodes":99}`,
		`{"nodes":-3}`,
		`{"nodes":1,"priority":-9223372036854775808,"user":"\u0000"}`,
		"{\"nodes\":1,\"name\":\"\xff\xfe\"}",
		`{"nodes":1} trailing`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Config{
			Batch: batch.Config{Cluster: testCluster(4), Policy: batch.Backfill},
			Clock: batch.VirtualClock{},
			Quota: Quota{MaxNodeSeconds: 1e6},
		})
		h := s.Handler()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		switch w.Code {
		case http.StatusCreated:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
			return
		default:
			t.Fatalf("HTTP %d for %q: %s", w.Code, body, w.Body)
		}
		var spec JobSpec // decoded as the handler does: the first value only
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&spec); err != nil {
			t.Fatalf("accepted %q, which does not decode: %v", body, err)
		}
		var posted JobView
		if err := json.Unmarshal(w.Body.Bytes(), &posted); err != nil {
			t.Fatalf("201 body %q: %v", w.Body, err)
		}
		r := httptest.NewRecorder()
		h.ServeHTTP(r, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/jobs/%d", posted.ID), nil))
		var v JobView
		if err := json.Unmarshal(r.Body.Bytes(), &v); r.Code != http.StatusOK || err != nil {
			t.Fatalf("GET job %d after 201: HTTP %d %s (%v)", posted.ID, r.Code, r.Body, err)
		}
		kind := spec.Kind
		if kind == "" {
			kind = "lbm"
		}
		if v.Name != spec.Name || v.Nodes != spec.Nodes || v.Priority != spec.Priority || v.Kind != kind {
			t.Fatalf("spec %+v reads back as %+v", spec, v)
		}
		if want := spec.EstSeconds * 1000; spec.EstSeconds > 0 && math.Abs(v.EstMS-want) > 1e-6+1e-12*want {
			t.Fatalf("est_seconds %g reads back as %g ms, want %g", spec.EstSeconds, v.EstMS, want)
		}
	})
}
