package batch

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metrics registry: counters, gauges, and histograms with Prometheus
// text-format exposition and a deterministic snapshot API. The
// scheduler publishes into a registry attached through Config.Metrics
// (schedMetrics below); a nil registry disables publication at zero
// cost, exactly like a nil Recorder. The registry is safe for
// concurrent use — counters and gauges are lock-free, histograms and
// registration take a mutex — so a future `clusterctl serve` can
// scrape it while a run is in flight.

// MetricKind distinguishes the exposition types.
type MetricKind int

const (
	CounterKind MetricKind = iota
	GaugeKind
	HistogramKind
)

func (k MetricKind) String() string {
	switch k {
	case CounterKind:
		return "counter"
	case GaugeKind:
		return "gauge"
	case HistogramKind:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Labels attach dimensions to a metric series (policy, user). Series
// identity is the metric name plus the sorted label set.
type Labels map[string]string

// labelString renders labels as the canonical `k="v",...` signature,
// sorted by key — both the registry's series key and the exposition
// form.
func labelString(ls Labels) string {
	if len(ls) == 0 {
		return ""
	}
	keys := make([]string, 0, len(ls))
	//batchlint:allow determinism -- keys are collected and sorted on the next line; the rendered signature is canonical
	for k := range ls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(ls[k]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel applies Prometheus label-value escaping.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Counter is a monotonically increasing value.
type Counter struct {
	bits atomic.Uint64
}

// Add increases the counter; negative deltas are ignored (and a zero
// one, the common case in schedMetrics.publish, costs no atomic).
func (c *Counter) Add(v float64) {
	if v <= 0 {
		return
	}
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by a (possibly negative) delta.
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into fixed buckets.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []uint64  // per-bucket (non-cumulative), len(bounds)+1
	sum    float64
	count  uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// DefaultBuckets spans sub-millisecond pass latencies through hour-long
// virtual queue waits.
var DefaultBuckets = []float64{0.0001, 0.001, 0.01, 0.1, 1, 10, 60, 300, 900, 3600, 14400}

// BucketCount is one cumulative histogram bucket in a snapshot.
type BucketCount struct {
	// UpperBound is the bucket's inclusive upper bound; the final
	// bucket's is math.Inf(1).
	UpperBound float64
	// Count is the cumulative observation count at or below UpperBound.
	Count uint64
}

// MetricPoint is one series' state in a snapshot.
type MetricPoint struct {
	Name   string
	Help   string
	Labels string // canonical sorted `k="v",...` signature
	Kind   MetricKind
	// Value holds counters and gauges.
	Value float64
	// Sum, Count, and Buckets hold histograms.
	Sum     float64
	Count   uint64
	Buckets []BucketCount
}

// Registry holds metric series. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu     sync.Mutex
	series map[string]*seriesEntry
	order  []string // registration order kept for stable iteration
}

type seriesEntry struct {
	name, help, labels string
	kind               MetricKind
	counter            *Counter
	gauge              *Gauge
	hist               *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*seriesEntry)}
}

// lookup returns the series for (name, labels), creating it with make
// when absent. Re-registering the same series returns the existing
// one; re-registering under a different kind panics — that is a
// programming error, not an operational condition.
func (r *Registry) lookup(name string, kind MetricKind, labels Labels, make func(e *seriesEntry)) *seriesEntry {
	ls := labelString(labels)
	key := name + "{" + ls + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.series[key]; e != nil {
		if e.kind != kind {
			panic(fmt.Sprintf("batch: metric %s registered as %v and %v", key, e.kind, kind))
		}
		return e
	}
	e := &seriesEntry{name: name, labels: ls, kind: kind}
	make(e)
	r.series[key] = e
	r.order = append(r.order, key)
	return e
}

// Counter returns (registering if needed) the counter series for
// (name, labels).
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	e := r.lookup(name, CounterKind, labels, func(e *seriesEntry) {
		e.help = help
		e.counter = &Counter{}
	})
	return e.counter
}

// Gauge returns (registering if needed) the gauge series for
// (name, labels).
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	e := r.lookup(name, GaugeKind, labels, func(e *seriesEntry) {
		e.help = help
		e.gauge = &Gauge{}
	})
	return e.gauge
}

// Histogram returns (registering if needed) the histogram series for
// (name, labels). buckets must be ascending; nil selects
// DefaultBuckets. Buckets are fixed at first registration.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	e := r.lookup(name, HistogramKind, labels, func(e *seriesEntry) {
		if buckets == nil {
			buckets = DefaultBuckets
		}
		for i := 1; i < len(buckets); i++ {
			if buckets[i] <= buckets[i-1] {
				panic(fmt.Sprintf("batch: metric %s: buckets not ascending", name))
			}
		}
		e.help = help
		e.hist = &Histogram{
			bounds: append([]float64(nil), buckets...),
			counts: make([]uint64, len(buckets)+1),
		}
	})
	return e.hist
}

// Snapshot returns every series' current state, sorted by name then
// label signature — deterministic regardless of registration or
// update order.
func (r *Registry) Snapshot() []MetricPoint {
	r.mu.Lock()
	entries := make([]*seriesEntry, 0, len(r.order))
	for _, key := range r.order {
		entries = append(entries, r.series[key])
	}
	r.mu.Unlock()
	out := make([]MetricPoint, 0, len(entries))
	for _, e := range entries {
		p := MetricPoint{Name: e.name, Help: e.help, Labels: e.labels, Kind: e.kind}
		switch e.kind {
		case CounterKind:
			p.Value = e.counter.Value()
		case GaugeKind:
			p.Value = e.gauge.Value()
		case HistogramKind:
			h := e.hist
			h.mu.Lock()
			p.Sum, p.Count = h.sum, h.count
			cum := uint64(0)
			for i, b := range h.bounds {
				cum += h.counts[i]
				p.Buckets = append(p.Buckets, BucketCount{UpperBound: b, Count: cum})
			}
			p.Buckets = append(p.Buckets, BucketCount{UpperBound: math.Inf(1), Count: h.count})
			h.mu.Unlock()
		}
		out = append(out, p)
	}
	sort.SliceStable(out, func(i, k int) bool {
		if out[i].Name != out[k].Name {
			return out[i].Name < out[k].Name
		}
		return out[i].Labels < out[k].Labels
	})
	return out
}

// WritePrometheus writes the registry in Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers once per metric family,
// series sorted by name then labels.
func (r *Registry) WritePrometheus(w io.Writer) error {
	fnum := func(v float64) string {
		if math.IsInf(v, 1) {
			return "+Inf"
		}
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	var b strings.Builder
	lastFamily := ""
	for _, p := range r.Snapshot() {
		if p.Name != lastFamily {
			if p.Help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", p.Name, p.Help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", p.Name, p.Kind)
			lastFamily = p.Name
		}
		switch p.Kind {
		case CounterKind, GaugeKind:
			if p.Labels == "" {
				fmt.Fprintf(&b, "%s %s\n", p.Name, fnum(p.Value))
			} else {
				fmt.Fprintf(&b, "%s{%s} %s\n", p.Name, p.Labels, fnum(p.Value))
			}
		case HistogramKind:
			sep := ""
			if p.Labels != "" {
				sep = ","
			}
			for _, bkt := range p.Buckets {
				fmt.Fprintf(&b, "%s_bucket{%s%sle=\"%s\"} %d\n", p.Name, p.Labels, sep, fnum(bkt.UpperBound), bkt.Count)
			}
			if p.Labels == "" {
				fmt.Fprintf(&b, "%s_sum %s\n", p.Name, fnum(p.Sum))
				fmt.Fprintf(&b, "%s_count %d\n", p.Name, p.Count)
			} else {
				fmt.Fprintf(&b, "%s_sum{%s} %s\n", p.Name, p.Labels, fnum(p.Sum))
				fmt.Fprintf(&b, "%s_count{%s} %d\n", p.Name, p.Labels, p.Count)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// schedMetrics caches the scheduler's typed metric handles, resolved
// once at New so the event loop publishes through direct pointers, not
// registry lookups. All series carry the policy label; the fair-share
// usage gauges add the user.
type schedMetrics struct {
	reg       *Registry
	base      Labels
	pub       Counters // the totals as last published (publish)
	pubPasses int      // s.passes as last published

	submitted  *Counter // batch_jobs_submitted_total
	completed  *Counter // batch_jobs_completed_total
	failed     *Counter // batch_jobs_failed_total
	canceled   *Counter // batch_jobs_canceled_total
	passes     *Counter // batch_scheduler_passes_total
	candidates *Counter // batch_placement_candidates_total
	backfills  *Counter // batch_backfills_total
	preempts   *Counter // batch_preemptions_total
	slices     *Counter // batch_slice_suspensions_total
	demotions  *Counter // batch_demotions_total

	faultKills   *Counter // batch_fault_kills_total
	nodeFaults   *Counter // batch_node_faults_total
	trunkOutages *Counter // batch_trunk_outages_total
	lostWork     *Counter // batch_lost_work_seconds_total
	banks        *Counter // batch_proactive_checkpoints_total

	queueDepth   *Gauge // batch_queue_depth
	nodesDown    *Gauge // batch_nodes_down
	writeBacklog *Gauge // batch_store_link_write_backlog_seconds
	readBacklog  *Gauge // batch_store_link_read_backlog_seconds

	wait        *Histogram // batch_job_wait_seconds (virtual)
	drainWait   *Histogram // batch_drain_wait_seconds (virtual)
	restoreWait *Histogram // batch_restore_wait_seconds (virtual)
	passWall    *Histogram // batch_pass_wall_seconds (real)

	userUsage map[string]*Gauge // batch_fairshare_usage_node_seconds
}

func newSchedMetrics(reg *Registry, pol Policy) *schedMetrics {
	base := Labels{"policy": pol.String()}
	m := &schedMetrics{
		reg:          reg,
		base:         base,
		submitted:    reg.Counter("batch_jobs_submitted_total", "Jobs accepted into the queue.", base),
		completed:    reg.Counter("batch_jobs_completed_total", "Jobs reaching a terminal state.", base),
		failed:       reg.Counter("batch_jobs_failed_total", "Jobs whose workload reported an error.", base),
		canceled:     reg.Counter("batch_jobs_canceled_total", "Jobs withdrawn by Cancel before completing.", base),
		passes:       reg.Counter("batch_scheduler_passes_total", "Scheduling sweeps of the queue, restarted ones included.", base),
		candidates:   reg.Counter("batch_placement_candidates_total", "Placement candidates enumerated across dispatch attempts.", base),
		backfills:    reg.Counter("batch_backfills_total", "Dispatches that jumped a blocked reservation.", base),
		preempts:     reg.Counter("batch_preemptions_total", "Priority checkpoint drains begun.", base),
		slices:       reg.Counter("batch_slice_suspensions_total", "Quantum-boundary suspensions begun.", base),
		demotions:    reg.Counter("batch_demotions_total", "Host images evicted to the checkpoint store.", base),
		faultKills:   reg.Counter("batch_fault_kills_total", "Running gangs killed by injected faults.", base),
		nodeFaults:   reg.Counter("batch_node_faults_total", "Injected node-down events applied.", base),
		trunkOutages: reg.Counter("batch_trunk_outages_total", "Injected whole-trunk outages applied.", base),
		lostWork:     reg.Counter("batch_lost_work_seconds_total", "Work destroyed by faults since the last banked checkpoint (virtual seconds).", base),
		banks:        reg.Counter("batch_proactive_checkpoints_total", "Proactive checkpoint banks settled (Config.CheckpointInterval).", base),
		queueDepth:   reg.Gauge("batch_queue_depth", "Pending jobs (including future arrivals).", base),
		nodesDown:    reg.Gauge("batch_nodes_down", "Nodes currently failed.", base),
		writeBacklog: reg.Gauge("batch_store_link_write_backlog_seconds", "How far the store link's write timeline extends past now.", base),
		readBacklog:  reg.Gauge("batch_store_link_read_backlog_seconds", "How far the store link's read timeline extends past now.", base),
		wait:         reg.Histogram("batch_job_wait_seconds", "Queue wait (virtual seconds) of completed jobs.", nil, base),
		drainWait:    reg.Histogram("batch_drain_wait_seconds", "Write-link queue wait (virtual seconds) per checkpoint drain.", nil, base),
		restoreWait:  reg.Histogram("batch_restore_wait_seconds", "Read-link queue wait (virtual seconds) per store restore.", nil, base),
		passWall:     reg.Histogram("batch_pass_wall_seconds", "Wall-clock latency per scheduling sweep.", nil, base),
		userUsage:    make(map[string]*Gauge),
	}
	return m
}

// publish refreshes the queue-depth and nodes-down gauges and raises
// each series that mirrors a scheduler total — Counters and the pass
// count are the one copy — by what the total has grown since the last
// call (so a registry shared by several schedulers sums them, as it
// does the counters incremented in place). Called after every sweep,
// which follows every fault and every event the loop handles, and at a
// cancellation.
func (m *schedMetrics) publish(s *Scheduler) {
	m.queueDepth.Set(float64(s.queued()))
	m.nodesDown.Set(float64(s.cfg.Cluster.downCount))
	c, p := s.ctr, m.pub
	m.backfills.Add(float64(c.Backfilled - p.Backfilled))
	m.preempts.Add(float64(c.PreemptEvents - p.PreemptEvents))
	m.slices.Add(float64(c.SliceEvents - p.SliceEvents))
	m.demotions.Add(float64(c.Demotions - p.Demotions))
	m.faultKills.Add(float64(c.FaultKills - p.FaultKills))
	m.nodeFaults.Add(float64(c.NodeFaults - p.NodeFaults))
	m.trunkOutages.Add(float64(c.TrunkOutages - p.TrunkOutages))
	m.lostWork.Add((c.LostWork - p.LostWork).Seconds())
	m.banks.Add(float64(c.Banks - p.Banks))
	m.passes.Add(float64(s.passes - m.pubPasses))
	m.pub, m.pubPasses = c, s.passes
}

// usageGauge returns the per-user fair-share usage gauge, registering
// it on first sight of the user.
func (m *schedMetrics) usageGauge(user string) *Gauge {
	if g := m.userUsage[user]; g != nil {
		return g
	}
	ls := Labels{"user": user}
	//batchlint:allow determinism -- map-to-map copy; labelString canonicalizes by sorted key before anything renders
	for k, v := range m.base {
		ls[k] = v
	}
	g := m.reg.Gauge("batch_fairshare_usage_node_seconds", "Decayed per-user node-seconds (fair-share accounting).", ls)
	m.userUsage[user] = g
	return g
}
