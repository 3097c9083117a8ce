package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// metricDef names one metric of BENCHMARK.json; bench_test.go checks the
// two lists below against that file.
type metricDef struct {
	name, unit, better string
	// bound is, for an end-to-end metric, the share of the parent's
	// median by which it may get worse.
	bound float64
	// exact marks a per-layer count or virtual-time figure that two
	// runs of one seed must report identically.
	exact bool
}

// endToEnd are printed by every untraced run of every workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "work_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.05},
	{name: "slo_ok_ratio", unit: "ratio", better: "higher", bound: 0.10},
}

// perLayer are printed by every traced run; a workload that does not
// exercise a layer reports 0 for it. For the exact ones "better" only
// says which way they would move if the work itself shrank: a change
// that claims a speed-up must leave them identical.
var perLayer = []metricDef{
	{name: "batch.submit_ms_per_op", unit: "ms", better: "lower"},
	{name: "batch.run_ms_per_op", unit: "ms", better: "lower"},
	{name: "batch.report_ms", unit: "ms", better: "lower"},
	{name: "batch.estimate_ms_per_op", unit: "ms", better: "lower"},
	{name: "batch.estimate_calls_per_op", unit: "count", better: "lower", exact: true},
	{name: "perfmodel.cluster_step_us", unit: "us", better: "lower"},
	{name: "sched.build_us", unit: "us", better: "lower"},
	{name: "sched.build_allocs", unit: "count", better: "lower"},
	{name: "netsim.step_times_us", unit: "us", better: "lower"},
	{name: "perfmodel.table1_sweep_us", unit: "us", better: "lower"},
	{name: "perfmodel.table1_max_rel_err", unit: "ratio", better: "lower", exact: true},
	{name: "batch.drain_easy_ms", unit: "ms", better: "lower"},
	{name: "batch.drain_fairshare_ms", unit: "ms", better: "lower"},
	{name: "batch.drain_conservative_ms", unit: "ms", better: "lower"},
	{name: "batch.drain_preempt_ms", unit: "ms", better: "lower"},
	{name: "batch.passes_per_op", unit: "count", better: "lower", exact: true},
	{name: "batch.pass_wall_ms_per_op", unit: "ms", better: "lower"},
	{name: "batch.placement_candidates_per_op", unit: "count", better: "lower", exact: true},
	{name: "batch.backfilled_per_op", unit: "count", better: "higher", exact: true},
	{name: "batch.preempt_events_per_op", unit: "count", better: "lower", exact: true},
	{name: "batch.slice_events_per_op", unit: "count", better: "lower", exact: true},
	{name: "batch.makespan_virtual_s", unit: "s", better: "lower", exact: true},
	{name: "server.submit_p50_ms", unit: "ms", better: "lower"},
	{name: "server.submit_p90_ms", unit: "ms", better: "lower"},
	{name: "server.status_p50_ms", unit: "ms", better: "lower"},
	{name: "server.status_p90_ms", unit: "ms", better: "lower"},
	{name: "server.queue_p50_ms", unit: "ms", better: "lower"},
	{name: "server.cancel_p50_ms", unit: "ms", better: "lower"},
	{name: "server.handler_submit_us", unit: "us", better: "lower"},
	{name: "server.handler_status_us", unit: "us", better: "lower"},
	{name: "server.rejected_ratio", unit: "ratio", better: "lower", exact: true},
	{name: "batch.engine_ingest_us", unit: "us", better: "lower"},
	{name: "batch.engine_explain_ms", unit: "ms", better: "lower"},
	{name: "batch.engine_snapshot_ms", unit: "ms", better: "lower"},
	{name: "batch.engine_pump_lag_p50_ms", unit: "ms", better: "lower"},
	{name: "batch.recorded_events", unit: "count", better: "lower"},
	{name: "batch.events_per_job", unit: "count", better: "lower"},
	{name: "batch.queue_depth_p50", unit: "count", better: "lower"},
	{name: "cluster.step_ms_p50", unit: "ms", better: "lower"},
	{name: "lbm.serial_step_ms", unit: "ms", better: "lower"},
	{name: "cluster.parallel_ratio", unit: "ratio", better: "higher"},
	{name: "lbm.compute_ms_per_step", unit: "ms", better: "lower"},
	{name: "lbm.pack_us_per_step", unit: "us", better: "lower"},
	{name: "lbm.unpack_us_per_step", unit: "us", better: "lower"},
	{name: "mpi.wait_ms_per_step", unit: "ms", better: "lower"},
	{name: "mpi.messages_per_step", unit: "count", better: "lower", exact: true},
	{name: "mpi.floats_per_step", unit: "count", better: "lower", exact: true},
	{name: "lbmgpu.pack_us_per_step", unit: "us", better: "lower"},
	{name: "lbmgpu.unpack_us_per_step", unit: "us", better: "lower"},
	{name: "gpu.passes_per_step", unit: "count", better: "lower", exact: true},
	{name: "gpu.fragments_per_step", unit: "count", better: "lower", exact: true},
	{name: "gpu.texture_copies_per_step", unit: "count", better: "lower", exact: true},
	{name: "gpu.ns_per_fragment", unit: "ns", better: "lower"},
	{name: "bus.readback_bytes_per_step", unit: "B", better: "lower", exact: true},
	{name: "bus.sim_transfer_ms_per_step", unit: "ms", better: "lower", exact: true},
	{name: "runtime.allocs_per_op", unit: "count", better: "lower"},
	{name: "runtime.alloc_kb_per_op", unit: "KB", better: "lower"},
	{name: "runtime.gc_cpu_ratio", unit: "ratio", better: "lower"},
	{name: "harness.op_count", unit: "count", better: "higher", exact: true},
	{name: "harness.op_p10_ms", unit: "ms", better: "lower"},
	{name: "harness.op_p50_ms", unit: "ms", better: "lower"},
	{name: "harness.op_p90_ms", unit: "ms", better: "lower"},
	{name: "harness.late_p99_ms", unit: "ms", better: "lower"},
	{name: "harness.trace_overhead_ratio", unit: "ratio", better: "lower"},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile of xs by nearest rank; 0 for no samples.
func quantile[T cmp.Ordered](xs []T, q float64) T {
	if len(xs) == 0 {
		var zero T
		return zero
	}
	s := slices.Sorted(slices.Values(xs))
	return s[int(q*float64(len(s)-1)+0.5)]
}

// params are the inputs of one run.
type params struct {
	seed    int64
	seconds int  // length of the timed window at the sizes measured in README.md
	quick   bool // test scale: same code paths, a fraction of the work
	// corruptRef makes set-up record a wrong reference, so that the
	// checked ops must count as failed (bench_test.go).
	corruptRef bool
}

// scale sizes an op count to the requested window: full is the count
// that fills defaultSeconds at the seed commit.
func (p params) scale(full, quick int) int {
	if p.quick {
		return quick
	}
	n := (full*p.seconds + defaultSeconds/2) / defaultSeconds
	if n < fingerprintOps {
		n = fingerprintOps
	}
	return n
}

const (
	defaultSeed    = 1
	defaultSeconds = 20
	// fingerprintOps is the fixed op range over which counts and
	// virtual-time figures are taken, so they repeat exactly whatever
	// the run length; the Chrome trace file holds the same ops.
	fingerprintOps = 20
	// setupRepeats is how often set-up runs; setup_s is the median.
	setupRepeats = 3
	// untracedEvery: in a traced run every such round (of serve-mix,
	// every such request) runs with tracing off, and
	// harness.trace_overhead_ratio compares the two groups, which hold
	// every kind in equal shares.
	untracedEvery = 5
)

// measure is what one run observed.
type measure struct {
	attempted, failed int
	sloOK             int             // ops that passed their check within their deadline
	work              float64         // units of work the passing ops did
	timed             time.Duration   // time the ops took (the window, for the open loop)
	ops               []time.Duration // op durations; in a traced run, the traced ops only
	untraced          []time.Duration // in a traced run, the ops run with tracing off
	kinds             []kindStat      // closed loops: the ops again, by the input they ran
	layer             map[string]float64
}

// kindStat is what the ops of one kind observed: the ops that ran one
// input, one of them per round.
type kindStat struct {
	work float64         // units of work its passing ops did
	ops  []time.Duration // its op durations
}

// set records a per-layer metric; the name must be in perLayer.
func (m *measure) set(name string, v float64) { m.layer[name] = v }

// closedLoop is a workload whose ops run one after the other, in rounds
// over its distinct inputs: op i runs input i%kinds, so the ops of one
// kind repeat the same work.
type closedLoop interface {
	// prepare readies op i's inputs, outside the timed region.
	prepare(i int)
	// op runs timed op i and returns the units of work it did.
	op(i int) float64
	// verify checks op i's outputs, outside the timed region.
	verify(i int) bool
}

// runOps times n ops of c, rounds over its kinds, one after the other.
func (m *measure) runOps(n, kinds int, tr *tracer, root *track, c closedLoop) {
	m.kinds = make([]kindStat, kinds)
	for i := 0; i < n; i++ {
		traced := tr != nil && (i/kinds)%untracedEvery != untracedEvery-1
		c.prepare(i)
		tr.arm(traced, i)
		sp := root.begin("op")
		t0 := time.Now()
		w := c.op(i)
		d := time.Since(t0)
		root.end(sp)
		m.attempted++
		k := &m.kinds[i%kinds]
		k.ops = append(k.ops, d)
		if c.verify(i) {
			m.work += w
			k.work += w
			m.sloOK++
		} else {
			m.failed++
		}
		m.timed += d
		if tr != nil && !traced {
			m.untraced = append(m.untraced, d)
		} else {
			m.ops = append(m.ops, d)
		}
	}
	tr.arm(false, -1)
}

// runner is one set-up workload instance.
type runner interface {
	// timed runs the timed window.
	timed(m *measure)
	// layers fills the workload's per-layer metrics after a traced
	// window, running its probe phase.
	layers(m *measure)
	// close releases what set-up started (listeners, goroutines).
	close()
}

// steady returns the run's work rate and the time of its median op. The
// open loop's are what the window saw. A closed loop's are taken kind by
// kind: whatever else the shared host runs only ever adds to an op's
// time, in bursts that last from one op to several seconds, so a kind's
// time is the lower quartile of its repeats, which are spread over the
// whole window, one per round. The rate is the work of one round over
// the time of its kinds; the median op is the median kind.
func (m *measure) steady() (rate float64, op time.Duration) {
	if len(m.kinds) == 0 {
		return m.work / m.timed.Seconds(), quantile(m.ops, 0.5)
	}
	var (
		work  float64
		round time.Duration
		per   []time.Duration
	)
	for _, k := range m.kinds {
		t := quantile(k.ops, 0.25)
		per = append(per, t)
		round += t
		work += k.work / float64(len(k.ops))
	}
	return work / round.Seconds(), quantile(per, 0.5)
}

// workload is one entry of BENCHMARK.json's workloads.
type workload struct {
	name string
	// setup generates the inputs from p.seed, constructs the system,
	// computes the correctness reference and runs the untimed warm-up ops.
	setup func(p params, tr *tracer) (runner, error)
}

var workloads = []workload{
	{"batch-submit", setupBatchSubmit},
	{"batch-drain", setupBatchDrain},
	{"serve-mix", setupServeMix},
	{"lbm-cpu", setupLBMCPU},
	{"lbm-gpu", setupLBMGPU},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// result is one finished run, ready to print.
type result struct {
	workload  string
	p         params
	m         *measure
	setup     time.Duration
	heapMB    float64
	tr        *tracer // nil for an untraced run
	tracePath string
}

// resultLine is the last line of a run's output, the one JSON object
// the driver reads.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload sets w up setupRepeats times, runs the timed window on the
// last instance and, in a traced run, the layer probes.
func runWorkload(w *workload, p params, traced bool) (*result, error) {
	var (
		r      runner
		tr     *tracer
		setups []time.Duration
	)
	for k := 0; k < setupRepeats; k++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		if traced {
			tr = newTracer()
		}
		var err error
		if r, err = w.setup(p, tr); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0))
	}
	defer r.close()

	m := &measure{layer: map[string]float64{}}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	gc0, cpu0 := gcCPU()
	r.timed(m)
	gc1, cpu1 := gcCPU()
	runtime.ReadMemStats(&after)
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)

	res := &result{workload: w.name, p: p, m: m, tr: tr,
		setup: quantile(setups, 0.5), heapMB: float64(live.HeapAlloc) / (1 << 20)}
	if m.attempted == 0 || len(m.ops) == 0 {
		return nil, fmt.Errorf("%s: no timed op ran", w.name)
	}
	if tr != nil {
		tr.summarize()
		n := float64(m.attempted)
		m.set("runtime.allocs_per_op", float64(after.Mallocs-before.Mallocs)/n)
		m.set("runtime.alloc_kb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1024/n)
		if cpu1 > cpu0 { // the runtime refreshes these at GC cycles only
			m.set("runtime.gc_cpu_ratio", (gc1-gc0)/(cpu1-cpu0))
		}
		m.set("harness.op_count", n)
		m.set("harness.op_p10_ms", ms(quantile(m.ops, 0.1)))
		m.set("harness.op_p50_ms", ms(quantile(m.ops, 0.5)))
		m.set("harness.op_p90_ms", ms(quantile(m.ops, 0.9)))
		if len(m.untraced) > 0 {
			m.set("harness.trace_overhead_ratio", float64(quantile(m.ops, 0.5))/float64(quantile(m.untraced, 0.5)))
		}
		r.layers(m)
	}
	return res, nil
}

// metricsOf returns the metrics the run reports, in BENCHMARK.json order.
func (res *result) metricsOf() ([]metricDef, map[string]float64) {
	if res.tr != nil {
		return perLayer, res.m.layer
	}
	m := res.m
	rate, op := m.steady()
	return endToEnd, map[string]float64{
		"setup_s":      res.setup.Seconds(),
		"work_per_s":   rate,
		"op_p50_ms":    ms(op),
		"live_heap_mb": res.heapMB,
		"slo_ok_ratio": float64(m.sloOK) / float64(m.attempted),
	}
}

// print writes the human-readable report and, as the last line, the one
// JSON object the driver reads.
func (res *result) print(w *bufio.Writer) error {
	m := res.m
	fmt.Fprintf(w, "workload %s  seed %d  gomaxprocs %d  traced %v\n", res.workload, res.p.seed, runtime.GOMAXPROCS(0), res.tr != nil)
	fmt.Fprintf(w, "ops attempted %d  failed %d  op samples %d  timed %.3f s  set-up %.3f s (median of %d)\n",
		m.attempted, m.failed, len(m.ops), m.timed.Seconds(), res.setup.Seconds(), setupRepeats)
	fmt.Fprintf(w, "op duration p10 %.3f  p50 %.3f  p90 %.3f ms  work over timed %.6g 1/s  kinds %d\n",
		ms(quantile(m.ops, 0.1)), ms(quantile(m.ops, 0.5)), ms(quantile(m.ops, 0.9)), m.work/m.timed.Seconds(), len(m.kinds))
	if res.tr != nil {
		res.tr.printTable(w)
		fmt.Fprintf(w, "chrome trace of ops 0-%d: %s\n", fingerprintOps-1, res.tracePath)
	}
	defs, vals := res.metricsOf()
	out := resultLine{m.failed == 0, m.attempted, m.failed, map[string]lineMetric{}}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", res.workload, d.name, v)
		}
		fmt.Fprintf(w, "%-36s %16.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = lineMetric{v, d.unit}
	}
	for name := range vals {
		if _, ok := out.Metrics[name]; !ok {
			return fmt.Errorf("%s: metric %s was recorded but is not in BENCHMARK.json", res.workload, name)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	w.Write(line)
	w.WriteByte('\n')
	return w.Flush()
}
