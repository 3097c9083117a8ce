package batch

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// Fault-injection property tests: seeded failure storms (node crashes
// with repair times, whole-trunk outages) run across the full crossed
// policy/preemption/quantum/suspend matrix, with and without proactive
// checkpointing. The invariants extend the base property suite's:
//
//  1. exact loss accounting — busy ≡ work + overhead + lost work, with
//     lost work exactly the wall time destroyed since the last banked
//     History boundary;
//  2. placement respects faults — no run segment overlaps a down
//     window of a node it occupies, and capacity/single-residency hold
//     while nodes die and repair mid-schedule;
//  3. determinism — the same mix, policy, and FaultPlan seed replayed
//     twice produces bit-identical reports and event streams.

// stormPlan is the seeded storm used by the property tests: sized so a
// 32-node property mix sees a steady trickle of node crashes plus the
// occasional trunk outage without livelocking run-to-completion
// configurations (machine MTBF well above the widest job's estimate).
func stormPlan(seed int64) *FaultPlan {
	return GenFaultPlan(seed, 32, 4*time.Hour, 10*time.Minute)
}

// stormConfigs crosses propertyConfigs with the storm and the proactive
// checkpointing knob.
func stormConfigs(seed int64) []Config {
	var cfgs []Config
	for _, cfg := range propertyConfigs() {
		for _, ival := range []time.Duration{0, 15 * time.Second} {
			cfg := cfg
			cfg.Faults = stormPlan(seed)
			cfg.CheckpointInterval = ival
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// downWindows reconstructs per-node down intervals from the recorded
// EvNodeDown events (elided already-repaired faults never appear).
func downWindows(events []Event) map[int][]Segment {
	wins := map[int][]Segment{}
	for _, ev := range events {
		if ev.Kind != EvNodeDown {
			continue
		}
		for _, n := range ev.Alloc.Nodes() {
			if n >= 0 {
				wins[n] = append(wins[n], Segment{Start: ev.From, End: ev.To})
			}
		}
	}
	return wins
}

// planWindows derives the per-node down intervals straight from the
// compiled plan, for recorder-less runs. Stricter than downWindows: it
// includes windows the scheduler elided — but an elided window had no
// outstanding work anywhere inside it (the event loop stops at every
// fault instant while work exists), so no run segment can overlap one.
func planWindows(plan *FaultPlan, nodes int) map[int][]Segment {
	wins := map[int][]Segment{}
	for _, ev := range plan.compile(nodes) {
		if ev.kind == faultNodeDown {
			wins[ev.node] = append(wins[ev.node], Segment{Start: ev.at, End: ev.until})
		}
	}
	return wins
}

// checkNoRunDuringDown asserts no job held a downed node: every run
// segment on a node is disjoint from every recorded down window of that
// node. A gang killed by the fault ends its segment exactly at the down
// instant, which is disjoint.
func checkNoRunDuringDown(t *testing.T, jobs []*Job, wins map[int][]Segment) {
	t.Helper()
	for _, j := range jobs {
		for _, seg := range j.Segments() {
			for _, n := range seg.Alloc.Ranges.Nodes() {
				for _, w := range wins[n] {
					if seg.Start < w.End && seg.End > w.Start {
						t.Fatalf("%s ran [%v,%v) on node %d inside down window [%v,%v)",
							j, seg.Start, seg.End, n, w.Start, w.End)
					}
				}
			}
		}
	}
}

// checkFaultBalance asserts the storm invariants on one finished run
// and returns (kills, banks) for the caller's vacuity aggregation.
// events may be nil for recorder-less runs (stream checks skipped).
func checkFaultBalance(t *testing.T, rep Report, count int, events []Event, wins map[int][]Segment) (int, int) {
	t.Helper()
	if len(rep.Jobs) != count || rep.Failed != 0 {
		t.Fatalf("finished %d of %d jobs, %d failed", len(rep.Jobs), count, rep.Failed)
	}
	checkNoOverlap(t, rep.Jobs, len(rep.NodeBusy))
	checkNoRunDuringDown(t, rep.Jobs, wins)
	var lost time.Duration
	faults, banks, faulted := 0, 0, 0
	for _, j := range rep.Jobs {
		if j.State != Done {
			t.Fatalf("%s ended %v", j, j.State)
		}
		if want := j.TimeSlices() + j.Preemptions() + j.Faults() + j.Banks() + 1; len(j.Segments()) != want {
			t.Fatalf("%s has %d segments, want %d (%d slices + %d preempts + %d faults + %d banks + final)",
				j, len(j.Segments()), want, j.TimeSlices(), j.Preemptions(), j.Faults(), j.Banks())
		}
		// Exact loss accounting: node-holding time is true work plus
		// charged overhead plus exactly the work the storm destroyed.
		// Slack only for the millisecond floor on degenerate segments.
		diff := j.BusyTime() - j.Estimate() - j.CheckpointOverhead() - j.LostWork()
		if diff < 0 {
			diff = -diff
		}
		if slack := 5*time.Millisecond + time.Duration(j.Faults()+j.Banks())*time.Millisecond; diff > slack {
			t.Fatalf("%s busy %v != est %v + overhead %v + lost %v (diff %v)",
				j, j.BusyTime(), j.Estimate(), j.CheckpointOverhead(), j.LostWork(), diff)
		}
		lost += j.LostWork()
		faults += j.Faults()
		banks += j.Banks()
		if j.Faults() > 0 {
			faulted++
		}
	}
	if lost != rep.LostWork {
		t.Fatalf("per-job lost work sums to %v, report says %v", lost, rep.LostWork)
	}
	if faults != rep.FaultKills || banks != rep.Banks || faulted != rep.Faulted {
		t.Fatalf("per-job counters (%d kills, %d banks, %d faulted) disagree with report (%d, %d, %d)",
			faults, banks, faulted, rep.FaultKills, rep.Banks, rep.Faulted)
	}
	// The event stream must carry every kill and bank, typed.
	if events != nil {
		evKills, evBanks := 0, 0
		for _, ev := range events {
			if ev.Kind == EvSegmentEnd && ev.Detail == "fault" {
				evKills++
			}
			if ev.Kind == EvSegmentEnd && ev.Detail == "bank" {
				evBanks++
			}
		}
		if evKills != rep.FaultKills || evBanks != rep.Banks {
			t.Fatalf("stream has %d fault segment-ends and %d bank settles, report counts %d and %d",
				evKills, rep.FaultKills, evBanks, rep.Banks)
		}
	}
	if rep.NodeFaults > 0 {
		if rep.Availability <= 0 || rep.Availability >= 1 {
			t.Fatalf("%d node faults but availability %.4f not in (0,1)", rep.NodeFaults, rep.Availability)
		}
		if rep.NodeDownTime <= 0 {
			t.Fatalf("%d node faults but zero node down-time", rep.NodeFaults)
		}
	}
	if rep.Goodput <= 0 {
		t.Fatalf("goodput %.4f not positive for a drained run", rep.Goodput)
	}
	return faults, banks
}

// TestFaultStormProperties runs the seeded storm across the crossed
// configuration matrix, with proactive checkpointing off and on, and
// asserts the loss-accounting, placement, and capacity invariants. The
// final vacuity guard proves the storm actually killed running gangs
// and (with the knob on) actually banked proactive checkpoints —
// without it every invariant above could pass on a storm that never
// connected.
func TestFaultStormProperties(t *testing.T) {
	const nodes, count = 32, 150
	totalKills, totalBanks := 0, 0
	for _, cfg := range stormConfigs(77) {
		cfg := cfg
		name := fmt.Sprintf("%v/preempt=%v/quantum=%v/host=%v/ckpt=%v",
			cfg.Policy, cfg.Preempt, cfg.Quantum, cfg.SuspendToHost, cfg.CheckpointInterval)
		t.Run(name, func(t *testing.T) {
			rec := &MemRecorder{}
			cfg.Cluster = newTestCluster(nodes)
			cfg.Recorder = rec
			s := New(cfg)
			submitAll(t, s, SyntheticStream(2, count, nodes, 5*time.Second))
			rep := s.Run()
			kills, banks := checkFaultBalance(t, rep, count, rec.Events(), downWindows(rec.Events()))
			totalKills += kills
			if cfg.CheckpointInterval > 0 {
				totalBanks += banks
			}
			var totalBusy time.Duration
			for i, b := range rep.NodeBusy {
				if b < 0 || b > rep.Makespan {
					t.Fatalf("node %d busy %v exceeds makespan %v", i, b, rep.Makespan)
				}
				totalBusy += b
			}
			if limit := time.Duration(nodes) * rep.Makespan; totalBusy > limit {
				t.Fatalf("total busy %v exceeds machine capacity %v", totalBusy, limit)
			}
		})
	}
	if totalKills == 0 {
		t.Fatal("vacuity: the storm never killed a running gang across the whole matrix")
	}
	if totalBanks == 0 {
		t.Fatal("vacuity: proactive checkpointing never banked across the interval-on runs")
	}
}

// TestFaultStormDeterminism pins the fault layer's replay guarantee:
// the same mix, policy, and FaultPlan seed twice produces bit-identical
// reports and recorded event streams — across every policy, with and
// without preemption and time-slicing.
func TestFaultStormDeterminism(t *testing.T) {
	const nodes, count = 32, 120
	configs := []struct {
		name    string
		preempt bool
		quantum time.Duration
		suspend bool
	}{
		{"plain", false, 0, false},
		{"preempt", true, 0, false},
		{"quantum", false, 300 * time.Second, false},
		{"preempt+quantum+host", true, 300 * time.Second, true},
	}
	for _, pol := range Policies() {
		for _, cc := range configs {
			t.Run(pol.String()+"/"+cc.name, func(t *testing.T) {
				ck, rs := fixedCosts(200*time.Millisecond, 100*time.Millisecond)
				run := func() (Report, []Event) {
					rec := &MemRecorder{}
					s := New(Config{
						Cluster:            newTestCluster(nodes),
						Policy:             pol,
						Preempt:            cc.preempt,
						Quantum:            cc.quantum,
						SuspendToHost:      cc.suspend,
						CheckpointCost:     ck,
						RestoreCost:        rs,
						Faults:             stormPlan(404),
						CheckpointInterval: 2 * time.Minute,
						Recorder:           rec,
					})
					submitAll(t, s, SyntheticStream(13, count, nodes, 5*time.Second))
					return s.Run(), append([]Event(nil), rec.Events()...)
				}
				a, ae := run()
				b, be := run()
				if a.Makespan != b.Makespan || a.AvgWait != b.AvgWait || a.MaxWait != b.MaxWait ||
					a.LostWork != b.LostWork || a.FaultKills != b.FaultKills || a.Banks != b.Banks ||
					a.NodeFaults != b.NodeFaults || a.TrunkOutages != b.TrunkOutages ||
					a.NodeDownTime != b.NodeDownTime || a.Availability != b.Availability ||
					a.Goodput != b.Goodput {
					t.Fatalf("storm replay diverged:\n  first:  %+v %+v %v\n  second: %+v %+v %v",
						a.Makespan, a.LostWork, a.FaultKills, b.Makespan, b.LostWork, b.FaultKills)
				}
				if len(ae) != len(be) {
					t.Fatalf("replay produced %d events, first run %d", len(be), len(ae))
				}
				for i := range ae {
					if !reflect.DeepEqual(ae[i], be[i]) {
						t.Fatalf("event %d differs between replays:\n  first:  %+v\n  second: %+v", i, ae[i], be[i])
					}
				}
			})
		}
	}
}

// TestTrunkOutageKillsCrossingGangs pins the whole-trunk fault: on a
// 32-node cluster (trunk behind node 24), a gang allocated [16,32)
// crosses the trunk and dies when the trunk does; a gang on [0,16)
// keeps running through the outage; the killed gang cannot re-place
// across the severed trunk and restarts only at repair.
func TestTrunkOutageKillsCrossingGangs(t *testing.T) {
	plan := &FaultPlan{Trunks: []TrunkFault{{At: 30 * time.Second, Duration: 10 * time.Second}}}
	rec := &MemRecorder{}
	s := New(Config{
		Cluster:  newTestCluster(32),
		Policy:   FIFO,
		Faults:   plan,
		Recorder: rec,
	})
	local := &Job{Name: "local", Kind: KindCG, Nodes: 16, Est: 100 * time.Second}
	cross := &Job{Name: "cross", Kind: KindCG, Nodes: 16, Est: 100 * time.Second}
	submitAll(t, s, []*Job{local, cross})
	rep := s.Run()
	if local.State != Done || cross.State != Done {
		t.Fatalf("jobs ended %v/%v", local.State, cross.State)
	}
	if local.Faults() != 0 || local.End != 100*time.Second {
		t.Fatalf("non-crossing gang was disturbed: %d faults, ended %v", local.Faults(), local.End)
	}
	if cross.Faults() != 1 || cross.LostWork() != 30*time.Second {
		t.Fatalf("crossing gang: %d faults, lost %v (want 1 kill losing 30s)", cross.Faults(), cross.LostWork())
	}
	// Killed at 30s, trunk back at 40s, reruns its full 100s estimate.
	if cross.End != 140*time.Second {
		t.Fatalf("crossing gang ended %v, want 140s (restart at trunk repair)", cross.End)
	}
	if rep.TrunkOutages != 1 || rep.FaultKills != 1 || rep.LostWork != 30*time.Second {
		t.Fatalf("report: %d outages, %d kills, lost %v", rep.TrunkOutages, rep.FaultKills, rep.LostWork)
	}
	// The outage is typed in the stream with its window.
	found := false
	for _, ev := range rec.Events() {
		if ev.Kind == EvTrunkDown {
			found = true
			if ev.From != 30*time.Second || ev.To != 40*time.Second {
				t.Fatalf("EvTrunkDown window [%v,%v), want [30s,40s)", ev.From, ev.To)
			}
		}
	}
	if !found {
		t.Fatal("no EvTrunkDown in the stream")
	}
}

// TestCheckpointIntervalGoodput is the acceptance pin for proactive
// checkpointing: under a designed crash, Config.CheckpointInterval
// strictly beats the no-proactive-checkpoint baseline on lost work,
// makespan, and goodput — the classic optimal-interval tradeoff's
// win side (drain cost per interval vs expected loss per fault).
func TestCheckpointIntervalGoodput(t *testing.T) {
	plan := &FaultPlan{Crashes: []NodeFault{{Node: 0, At: 60 * time.Second, Repair: 5 * time.Second}}}
	run := func(interval time.Duration) Report {
		ck, rs := fixedCosts(time.Second, 500*time.Millisecond)
		s := New(Config{
			Cluster:            newTestCluster(8),
			Policy:             FIFO,
			CheckpointCost:     ck,
			RestoreCost:        rs,
			Faults:             plan,
			CheckpointInterval: interval,
		})
		j := &Job{Name: "gang", Kind: KindCG, Nodes: 8, Est: 100 * time.Second}
		submitAll(t, s, []*Job{j})
		rep := s.Run()
		if j.State != Done {
			t.Fatalf("interval %v: job ended %v", interval, j.State)
		}
		return rep
	}
	base := run(0)
	ckpt := run(10 * time.Second)
	// Baseline: killed at 60s with nothing banked, restarts from zero at
	// repair — exactly 60s of work destroyed.
	if base.LostWork != 60*time.Second || base.FaultKills != 1 {
		t.Fatalf("baseline lost %v across %d kills, want 60s across 1", base.LostWork, base.FaultKills)
	}
	if ckpt.Banks == 0 {
		t.Fatal("proactive run never banked a checkpoint")
	}
	// Proactive banking bounds the loss by roughly one interval (plus
	// bank drain time), so it must beat the baseline outright.
	if ckpt.LostWork >= base.LostWork {
		t.Fatalf("proactive lost %v, baseline lost %v — checkpointing must bound the loss", ckpt.LostWork, base.LostWork)
	}
	if ckpt.LostWork > 12*time.Second {
		t.Fatalf("proactive lost %v, want at most ~one 10s interval plus drain", ckpt.LostWork)
	}
	if ckpt.Makespan >= base.Makespan {
		t.Fatalf("proactive makespan %v not better than baseline %v", ckpt.Makespan, base.Makespan)
	}
	if ckpt.Goodput <= base.Goodput {
		t.Fatalf("proactive goodput %.4f not better than baseline %.4f", ckpt.Goodput, base.Goodput)
	}
	// The report surfaces the storm section.
	if !strings.Contains(ckpt.String(), "faults:") {
		t.Fatalf("report String lacks the faults section:\n%s", ckpt.String())
	}
}

// TestCheckpointIntervalFaultFreeIdentity pins the knob's no-fault
// contract: with no faults injected, any CheckpointInterval setting
// reproduces the unchecked run bit for bit — proactive checkpointing
// never fires on a run that cannot lose work. An empty (but non-nil)
// plan counts as no faults.
func TestCheckpointIntervalFaultFreeIdentity(t *testing.T) {
	const nodes, count = 32, 120
	ck, rs := fixedCosts(200*time.Millisecond, 100*time.Millisecond)
	run := func(interval time.Duration, plan *FaultPlan) (Report, []Event) {
		rec := &MemRecorder{}
		s := New(Config{
			Cluster:            newTestCluster(nodes),
			Policy:             Backfill,
			Preempt:            true,
			Quantum:            300 * time.Second,
			CheckpointCost:     ck,
			RestoreCost:        rs,
			Faults:             plan,
			CheckpointInterval: interval,
			Recorder:           rec,
		})
		submitAll(t, s, SyntheticStream(7, count, nodes, 5*time.Second))
		return s.Run(), append([]Event(nil), rec.Events()...)
	}
	base, baseEvs := run(0, nil)
	for _, tc := range []struct {
		name     string
		interval time.Duration
		plan     *FaultPlan
	}{
		{"interval-on", 10 * time.Second, nil},
		{"interval-on-empty-plan", 10 * time.Second, &FaultPlan{}},
	} {
		rep, evs := run(tc.interval, tc.plan)
		if rep.Makespan != base.Makespan || rep.AvgWait != base.AvgWait || rep.Banks != 0 ||
			rep.LostWork != 0 || rep.FaultKills != 0 {
			t.Fatalf("%s: fault-free run diverged (makespan %v vs %v, %d banks, lost %v)",
				tc.name, rep.Makespan, base.Makespan, rep.Banks, rep.LostWork)
		}
		if len(evs) != len(baseEvs) {
			t.Fatalf("%s: %d events vs baseline %d", tc.name, len(evs), len(baseEvs))
		}
		for i := range evs {
			if !reflect.DeepEqual(evs[i], baseEvs[i]) {
				t.Fatalf("%s: event %d differs:\n  base: %+v\n  knob: %+v", tc.name, i, baseEvs[i], evs[i])
			}
		}
	}
}

// TestNegativeCostHooksPriceZero pins the one clamp New puts on the
// cost hooks. With every hook answering a different negative duration,
// every drain (preemption, slice, host suspend, bank), restore, host
// resume, migration and demotion write is priced at zero — nothing is
// charged, nothing waits on the store link, every booked transfer is
// empty — and busy ≡ work + overhead + lost work holds, across preempt
// × quantum × suspend-to-host × fault plan. Node memory is tight, so
// resident images get demoted.
func TestNegativeCostHooksPriceZero(t *testing.T) {
	neg := func(d time.Duration) func(*Job) time.Duration {
		return func(*Job) time.Duration { return -d }
	}
	const nodes, count = 32, 150
	tight := func() *Cluster {
		c := newTestCluster(nodes)
		for i := 0; i < nodes; i++ {
			spec := c.Spec(i)
			spec.MemBytes = 160 << 20
			if i%4 == 3 {
				spec.MemBytes = 96 << 20
			}
			c.SetSpec(i, spec)
		}
		return c
	}
	var drains, hostSuspends, demotions, banks int
	for _, preempt := range []bool{false, true} {
		for _, quantum := range []time.Duration{0, 5 * time.Second} {
			for _, suspend := range []bool{false, true} {
				for _, plan := range []*FaultPlan{nil, stormPlan(77)} {
					if !preempt && quantum == 0 && plan == nil {
						continue // nothing is ever drained or restored
					}
					name := fmt.Sprintf("preempt=%v/quantum=%v/host=%v/faults=%v", preempt, quantum, suspend, plan != nil)
					t.Run(name, func(t *testing.T) {
						rec := &MemRecorder{}
						s := New(Config{
							Cluster:            tight(),
							Policy:             Backfill,
							Preempt:            preempt,
							Quantum:            quantum,
							SuspendToHost:      suspend,
							Faults:             plan,
							CheckpointInterval: 15 * time.Second,
							CheckpointCost:     neg(100 * time.Millisecond),
							RestoreCost:        neg(50 * time.Millisecond),
							HostSuspendCost:    neg(300 * time.Millisecond),
							HostResumeCost:     neg(25 * time.Millisecond),
							Recorder:           rec,
						})
						submitAll(t, s, SyntheticStream(3, count, nodes, time.Second))
						rep := s.Run()
						checkFaultBalance(t, rep, count, rec.Events(), downWindows(rec.Events()))
						for _, j := range rep.Jobs {
							if j.CheckpointOverhead() != 0 {
								t.Fatalf("%s charged %v of overhead", j, j.CheckpointOverhead())
							}
						}
						if rep.DrainWait != 0 || rep.RestoreWait != 0 || rep.DemotionTime != 0 {
							t.Fatalf("drain wait %v, restore wait %v, demotion time %v; want all zero",
								rep.DrainWait, rep.RestoreWait, rep.DemotionTime)
						}
						for _, ev := range rec.Events() {
							switch ev.Kind {
							case EvDispatch:
								if ev.From != ev.Time {
									t.Fatalf("job %d dispatched at %v with work from %v: a restore was charged", ev.Job, ev.Time, ev.From)
								}
							case EvDrainBegin, EvStoreWrite, EvStoreRead, EvDemoteBegin:
								if ev.To != ev.From || ev.From != ev.Time {
									t.Fatalf("%v of job %d at %v spans [%v,%v), want empty and immediate", ev.Kind, ev.Job, ev.Time, ev.From, ev.To)
								}
								if ev.Kind == EvDrainBegin {
									drains++
								}
							}
						}
						hostSuspends += rep.HostSuspends
						demotions += rep.Demotions
						banks += rep.Banks
					})
				}
			}
		}
	}
	if drains == 0 || hostSuspends == 0 || demotions == 0 || banks == 0 {
		t.Fatalf("vacuity: %d drains, %d host suspends, %d demotions, %d banks across the matrix; want each > 0",
			drains, hostSuspends, demotions, banks)
	}
	t.Logf("%d drains, %d host suspends, %d demotions, %d banks priced at zero", drains, hostSuspends, demotions, banks)
}

// TestFaultPlanParse pins the fault trace format: crash/flap/trunk
// lines with second-denominated times, comments, and blank lines.
func TestFaultPlanParse(t *testing.T) {
	const text = `# seeded storm, exported
crash 3 120 60       ; node 3 dies at t=120s, back at t=180s
flap 17 600.5 2.5
trunk 900 30

crash 0 42 1
`
	plan, err := ParseFaultPlan(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	wantCrashes := []NodeFault{
		{Node: 3, At: 120 * time.Second, Repair: 60 * time.Second},
		{Node: 17, At: 600*time.Second + 500*time.Millisecond, Repair: 2500 * time.Millisecond},
		{Node: 0, At: 42 * time.Second, Repair: time.Second},
	}
	if !reflect.DeepEqual(plan.Crashes, wantCrashes) {
		t.Fatalf("crashes parsed as %+v, want %+v", plan.Crashes, wantCrashes)
	}
	wantTrunks := []TrunkFault{{At: 900 * time.Second, Duration: 30 * time.Second}}
	if !reflect.DeepEqual(plan.Trunks, wantTrunks) {
		t.Fatalf("trunks parsed as %+v, want %+v", plan.Trunks, wantTrunks)
	}
	for _, bad := range []string{
		"crash 3 120",        // missing repair
		"crash x 120 60",     // bad node
		"flap 3 120 -5",      // negative duration
		"explode 3 120 60",   // unknown verb
		"trunk 900 30 extra", // trailing token
		"crash 3 9e9 9e9",    // an end no time.Duration holds
		"trunk NaN 30",       // not a number
	} {
		if _, err := ParseFaultPlan(strings.NewReader(bad)); err == nil {
			t.Fatalf("ParseFaultPlan accepted %q", bad)
		}
	}
}

// TestGenFaultPlan pins the generator: seeded determinism, in-range
// nodes, positive repair times, and a storm dense enough to matter.
func TestGenFaultPlan(t *testing.T) {
	const nodes = 32
	a := GenFaultPlan(9, nodes, 4*time.Hour, time.Hour)
	b := GenFaultPlan(9, nodes, 4*time.Hour, time.Hour)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed generated different plans")
	}
	if len(a.Crashes) == 0 {
		t.Fatal("generated storm has no crashes")
	}
	for _, f := range a.Crashes {
		if f.Node < 0 || f.Node >= nodes {
			t.Fatalf("crash names node %d outside [0,%d)", f.Node, nodes)
		}
		if f.At < 0 || f.At >= 4*time.Hour || f.Repair <= 0 {
			t.Fatalf("crash %+v outside the horizon or with no repair", f)
		}
	}
	if c := GenFaultPlan(10, nodes, 4*time.Hour, time.Hour); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated identical plans")
	}
}

// FuzzParseFaultPlan feeds ParseFaultPlan arbitrary text. It must never
// panic, and a successful parse must hold what the parser documents:
// every node index non-negative, every fault starting at or after zero
// and lasting a positive time, and its end an instant a time.Duration
// can hold. The compiled plan must then be sorted, with every down
// interval ending after it begins. The seed corpus (testdata/fuzz) holds
// TestFaultPlanParse's accepted and rejected lines.
func FuzzParseFaultPlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		p, err := ParseFaultPlan(strings.NewReader(text))
		if err != nil {
			return
		}
		for _, c := range p.Crashes {
			if c.Node < 0 || c.At < 0 || c.Repair <= 0 || c.At+c.Repair <= c.At {
				t.Fatalf("crash out of range: %+v", c)
			}
		}
		for _, tr := range p.Trunks {
			if tr.At < 0 || tr.Duration <= 0 || tr.At+tr.Duration <= tr.At {
				t.Fatalf("trunk outage out of range: %+v", tr)
			}
		}
		evs := p.compile(64)
		for i, ev := range evs {
			if i > 0 && ev.at < evs[i-1].at {
				t.Fatalf("compiled event %d at %v precedes event %d at %v", i, ev.at, i-1, evs[i-1].at)
			}
			if (ev.kind == faultNodeDown || ev.kind == faultTrunkDown) && ev.until <= ev.at {
				t.Fatalf("down interval [%v, %v) ends before it begins", ev.at, ev.until)
			}
		}
	})
}
