package batch

import (
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "a counter", Labels{"policy": "fifo"})
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // negative adds are dropped, counters are monotone
	g := reg.Gauge("g", "a gauge", nil)
	g.Set(7)
	g.Set(3.25)
	h := reg.Histogram("h_seconds", "a histogram", []float64{1, 10}, nil)
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100)

	snap := reg.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d points, want 3", len(snap))
	}
	byName := map[string]MetricPoint{}
	for _, p := range snap {
		byName[p.Name] = p
	}
	if v := byName["c_total"].Value; v != 3.5 {
		t.Fatalf("counter = %v, want 3.5 (negative add must be ignored)", v)
	}
	if v := byName["g"].Value; v != 3.25 {
		t.Fatalf("gauge = %v, want 3.25", v)
	}
	hp := byName["h_seconds"]
	if hp.Count != 3 || hp.Sum != 105.5 {
		t.Fatalf("histogram count/sum = %d/%v, want 3/105.5", hp.Count, hp.Sum)
	}
	// Cumulative buckets: le=1 holds 1, le=10 holds 2, +Inf holds all 3.
	if len(hp.Buckets) != 3 || hp.Buckets[0].Count != 1 ||
		hp.Buckets[1].Count != 2 || hp.Buckets[2].Count != 3 {
		t.Fatalf("histogram buckets = %+v", hp.Buckets)
	}
}

func TestRegistryReregisterAndMismatch(t *testing.T) {
	reg := NewRegistry()
	lbl := Labels{"policy": "easy"}
	a := reg.Counter("x_total", "x", lbl)
	b := reg.Counter("x_total", "x", lbl)
	if a != b {
		t.Fatal("re-registering the same series must return the same counter")
	}
	a.Inc()
	b.Inc()
	if got := reg.Snapshot()[0].Value; got != 2 {
		t.Fatalf("shared series = %v, want 2", got)
	}
	// Distinct label values are distinct series.
	reg.Counter("x_total", "x", Labels{"policy": "fifo"})
	if got := len(reg.Snapshot()); got != 2 {
		t.Fatalf("snapshot has %d series, want 2", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge must panic")
		}
	}()
	reg.Gauge("x_total", "x", lbl)
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b_total", "b", nil)
	reg.Gauge("a", "a", Labels{"k": "2"})
	reg.Gauge("a", "a", Labels{"k": "1"})
	first := reg.Snapshot()
	if first[0].Name != "a" || first[0].Labels != `k="1"` ||
		first[1].Labels != `k="2"` || first[2].Name != "b_total" {
		t.Fatalf("snapshot order: %+v", first)
	}
	for i := 0; i < 5; i++ {
		again := reg.Snapshot()
		for k := range first {
			if again[k].Name != first[k].Name || again[k].Labels != first[k].Labels {
				t.Fatalf("snapshot order changed between calls")
			}
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("jobs_total", "Jobs seen.", Labels{"policy": "easy"}).Add(4)
	reg.Gauge("depth", "Queue depth.", nil).Set(2)
	h := reg.Histogram("wait_seconds", "Waits.", []float64{1}, nil)
	h.Observe(0.5)
	h.Observe(3)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP jobs_total Jobs seen.",
		"# TYPE jobs_total counter",
		`jobs_total{policy="easy"} 4`,
		"# TYPE depth gauge",
		"depth 2",
		"# TYPE wait_seconds histogram",
		`wait_seconds_bucket{le="1"} 1`,
		`wait_seconds_bucket{le="+Inf"} 2`,
		"wait_seconds_sum 3.5",
		"wait_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestSchedulerMetricsIntegration cross-checks the registry against the
// Report counters on a contended run that exercises backfill,
// preemption, time-slicing, and suspend-to-host demotion.
func TestSchedulerMetricsIntegration(t *testing.T) {
	reg := NewRegistry()
	jobs := SyntheticStream(3, 150, 32, 5*time.Second)
	s := New(Config{
		Cluster: newTestCluster(32), Policy: Backfill, TrunkSlowdown: 1.1,
		Preempt: true, Quantum: 300 * time.Second, SuspendToHost: true,
		Metrics: reg,
	})
	submitAll(t, s, jobs)
	rep := s.Run()

	get := func(name string) MetricPoint {
		for _, p := range reg.Snapshot() {
			if p.Name == name {
				return p
			}
		}
		t.Fatalf("metric %s not registered", name)
		return MetricPoint{}
	}
	if v := get("batch_jobs_submitted_total").Value; v != float64(len(jobs)) {
		t.Fatalf("submitted = %v, want %d", v, len(jobs))
	}
	done := get("batch_jobs_completed_total").Value
	failed := get("batch_jobs_failed_total").Value
	if done+failed != float64(len(jobs)) || int(failed) != rep.Failed {
		t.Fatalf("completed %v + failed %v, want %d total with %d failed",
			done, failed, len(jobs), rep.Failed)
	}
	if v := get("batch_backfills_total").Value; int(v) != rep.Backfilled {
		t.Fatalf("backfills = %v, report says %d", v, rep.Backfilled)
	}
	if v := get("batch_preemptions_total").Value; int(v) != rep.PreemptEvents {
		t.Fatalf("preemptions = %v, report says %d", v, rep.PreemptEvents)
	}
	if v := get("batch_slice_suspensions_total").Value; int(v) != rep.SliceEvents {
		t.Fatalf("slice suspensions = %v, report says %d", v, rep.SliceEvents)
	}
	if v := get("batch_demotions_total").Value; int(v) != rep.Demotions {
		t.Fatalf("demotions = %v, report says %d", v, rep.Demotions)
	}
	if v := get("batch_scheduler_passes_total").Value; v <= 0 || int(v) != s.passes {
		t.Fatalf("scheduler passes = %v, scheduler counted %d", v, s.passes)
	}
	if wait := get("batch_job_wait_seconds"); wait.Count != uint64(len(jobs)) {
		t.Fatalf("wait histogram saw %d jobs, want %d", wait.Count, len(jobs))
	}
	if v := get("batch_queue_depth").Value; v != 0 {
		t.Fatalf("final queue depth gauge = %v, want 0", v)
	}
	// Every series carries the run's identity label, and only that.
	if lbl := get("batch_jobs_submitted_total").Labels; lbl != `policy="easy"` {
		t.Fatalf("identity label = %s, want policy=\"easy\" alone", lbl)
	}
	// The usage gauges track granted node-time for every user regardless
	// of policy; this run completes jobs, so some account must be set.
	if v := get("batch_fairshare_usage_node_seconds").Value; v <= 0 {
		t.Fatal("fair-share usage gauge never set")
	}
}
