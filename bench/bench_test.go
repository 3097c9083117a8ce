package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []jsonDef `json:"end_to_end"`
	PerLayer []jsonDef `json:"per_layer"`
}

type jsonDef struct {
	Name, Unit, Better string
	Bound              float64
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesTables pins the contract file to the tables
// the program prints from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q with a why of %d characters, want %q and one line of at most 200", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	check := func(kind string, got []jsonDef, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || g.Bound != w.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if endToEnd[0].name != "setup_s" || endToEnd[0].bound < 0.25 {
		t.Errorf("setup_s must be an end-to-end metric with the largest bound")
	}
}

// quickRun runs one workload at test scale and returns the result and
// what it printed.
func quickRun(t *testing.T, name string, traced, corrupt bool) (*result, string) {
	t.Helper()
	p := params{seed: defaultSeed, seconds: defaultSeconds, quick: true, corruptRef: corrupt}
	res, err := runWorkload(findWorkload(name), p, traced)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var buf bytes.Buffer
	if err := res.print(bufio.NewWriter(&buf)); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res, buf.String()
}

// checkPrinted asserts that out names every metric of defs exactly once
// with its unit, and that its last line is the driver's JSON object
// with exactly those metrics.
func checkPrinted(t *testing.T, name, out string, defs []metricDef) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	seen := map[string]int{}
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) == 3 {
			for _, d := range defs {
				if f[0] == d.name && f[2] == d.unit {
					seen[d.name]++
				}
			}
		}
	}
	for _, d := range defs {
		if seen[d.name] != 1 {
			t.Errorf("%s: metric %s printed %d times with unit %s, want once", name, d.name, seen[d.name], d.unit)
		}
	}
	var raw struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", name, err)
	}
	if raw.Correct == nil || raw.Attempted == nil || raw.Failed == nil || *raw.Attempted < 1 {
		t.Fatalf("%s: result object lacks correct, attempted or failed: %s", name, lines[len(lines)-1])
	}
	if len(raw.Metrics) != len(defs) {
		t.Errorf("%s: result object has %d metrics, want %d", name, len(raw.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := raw.Metrics[d.name]; !ok || m.Value == nil || m.Unit != d.unit {
			t.Errorf("%s: result object lacks %s in %s", name, d.name, d.unit)
		}
	}
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	return line
}

func TestQuickWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, out := quickRun(t, w.name, false, false)
			line := checkPrinted(t, w.name, out, endToEnd)
			if !line.Correct || line.Failed != 0 || res.m.failed != 0 {
				t.Errorf("untraced run: %d of %d ops failed", line.Failed, line.Attempted)
			}
			for _, d := range endToEnd {
				if v := line.Metrics[d.name].Value; v <= 0 {
					t.Errorf("end-to-end metric %s is %v, must never be 0", d.name, v)
				}
			}

			res, out = quickRun(t, w.name, true, false)
			line = checkPrinted(t, w.name, out, perLayer)
			if !line.Correct || line.Failed != 0 {
				t.Errorf("traced run: %d of %d ops failed", line.Failed, line.Attempted)
			}
			if line.Metrics["harness.op_count"].Value != float64(line.Attempted) {
				t.Errorf("harness.op_count %v, attempted %d", line.Metrics["harness.op_count"].Value, line.Attempted)
			}
			if len(res.tr.tracks) == 0 || len(res.tr.tracks[0].spans) == 0 {
				t.Errorf("traced run recorded no span")
			}
			if w.name == "batch-drain" {
				if v := line.Metrics["batch.estimate_calls_per_op"].Value; v != 0 {
					t.Errorf("batch.estimate_calls_per_op = %v on batch-drain, want 0: the estimator must stay out of this workload", v)
				}
				for _, name := range []string{"batch.preempt_events_per_op", "batch.slice_events_per_op", "batch.backfilled_per_op"} {
					if line.Metrics[name].Value == 0 {
						t.Errorf("%s is 0: the leg that should produce it is vacuous", name)
					}
				}
			}
			if w.name == "batch-submit" && line.Metrics["batch.estimate_calls_per_op"].Value == 0 {
				t.Errorf("batch.estimate_calls_per_op is 0 on batch-submit: estimates are not left to the scheduler")
			}

			// A wrong reference must surface as failed ops, not pass silently.
			res, out = quickRun(t, w.name, false, true)
			line = checkPrinted(t, w.name, out, endToEnd)
			if line.Correct || line.Failed == 0 {
				t.Errorf("corrupted reference: correct %v, %d of %d ops failed; the check does not look at the reference", line.Correct, line.Failed, line.Attempted)
			}
		})
	}
}

func TestSelfTimes(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	// root [0,100] > a [10,40], b [50,90] > c [60,70]; then a second root.
	tk := &track{spans: []span{
		{name: "root", start: at(0), end: at(100), parent: -1},
		{name: "a", start: at(10), end: at(40), parent: 0},
		{name: "b", start: at(50), end: at(90), parent: 0},
		{name: "c", start: at(60), end: at(70), parent: 2},
		{name: "root", start: at(100), end: at(120), parent: -1},
		{name: "a", start: at(105), end: at(110), parent: 4},
	}}
	want := []time.Duration{at(30), at(30), at(30), at(10), at(15), at(5)}
	for i, got := range selfTimes(tk.spans) {
		if got != want[i] {
			t.Errorf("span %d (%s): self time %v, want %v", i, tk.spans[i].name, got, want[i])
		}
	}
	by := tk.byName()
	if r := by["root"]; r.n != 2 || r.total != at(120) || r.self != at(45) {
		t.Errorf("root: %+v, want 2 spans, 120ms total, 45ms self", r)
	}
	if a := by["a"]; a.n != 2 || a.total != at(35) || a.self != at(35) {
		t.Errorf("a: %+v, want 2 spans, 35ms total and self", a)
	}
	var total time.Duration
	for _, s := range by {
		total += s.self
	}
	if total != at(120) {
		t.Errorf("self times sum to %v, want the 120ms the roots cover", total)
	}
}

// TestSteady pins the closed loops' two timings: a kind's time is the
// lower quartile of its repeats, so a burst that hits one round of five
// moves neither the rate nor the median op.
func TestSteady(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	quiet := &measure{kinds: []kindStat{
		{work: 50, ops: []time.Duration{at(100), at(120), at(110), at(105), at(130)}},
		{work: 100, ops: []time.Duration{at(200), at(210), at(230), at(205), at(220)}},
	}}
	burst := &measure{kinds: []kindStat{
		{work: 50, ops: []time.Duration{at(100), at(120), at(110), at(105), at(400)}},
		{work: 100, ops: []time.Duration{at(200), at(210), at(900), at(205), at(220)}},
	}}
	for _, m := range []*measure{quiet, burst} {
		rate, op := m.steady()
		// One round is 10 + 20 units of work in 105 + 205 ms.
		if want := 30 / 0.310; math.Abs(rate-want) > 1e-9 || op != at(205) {
			t.Errorf("steady() = %v 1/s, %v; want %v 1/s, 205ms", rate, op, want)
		}
	}
	open := &measure{work: 600, timed: 2 * time.Second, ops: []time.Duration{at(1), at(3), at(2)}}
	if rate, op := open.steady(); rate != 300 || op != at(2) {
		t.Errorf("open loop: steady() = %v 1/s, %v; want 300 1/s, 2ms", rate, op)
	}
}

func TestTrackNesting(t *testing.T) {
	tr := newTracer()
	tk := tr.newTrack("t")
	if id := tk.begin("off"); id != -1 {
		t.Fatalf("a switched-off track recorded a span")
	}
	tr.arm(true, 7)
	outer := tk.begin("outer")
	inner := tk.begin("inner")
	tk.end(inner)
	tk.end(outer)
	if len(tk.spans) != 2 || tk.spans[1].parent != 0 || tk.spans[0].parent != -1 || tk.spans[1].op != 7 {
		t.Errorf("spans %+v: want inner parented to outer, both of op 7", tk.spans)
	}
	var none *track
	none.end(none.begin("nil track")) // must not panic
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 4, 2, 9, 3, 8, 5, 6}
	if got := spreadOf(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := medianOf(xs); got != 5.5 {
		t.Errorf("median %v, want 5.5", got)
	}
}
