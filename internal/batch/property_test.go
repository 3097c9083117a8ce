package batch

import (
	"fmt"
	"testing"
	"time"
)

// Property tests over randomized arrival-staggered mixes, crossing
// every queue discipline with time-slicing and preemption on and off.
// checkSchedule certifies each run against the invariants the event
// loop's notion of "running" (a gang may be resident-but-suspended)
// must never break: single residency, capacity, and banked progress —
// every job's node-holding time is exactly its true work plus the
// checkpoint/restore overhead charged to it, across any number of
// slices and preemptions.

// propertyConfigs enumerates the crossed scheduler configurations.
func propertyConfigs() []Config {
	ck, rs := fixedCosts(200*time.Millisecond, 100*time.Millisecond)
	hs, hr := fixedHostCosts(50*time.Millisecond, 25*time.Millisecond)
	var cfgs []Config
	for _, pol := range Policies() {
		for _, preempt := range []bool{false, true} {
			for _, quantum := range []time.Duration{0, 5 * time.Second} {
				for _, suspend := range []bool{false, true} {
					if suspend && !preempt && quantum == 0 {
						continue // no suspensions ever happen: inert
					}
					cfgs = append(cfgs, Config{
						Policy:          pol,
						Preempt:         preempt,
						Quantum:         quantum,
						SuspendToHost:   suspend,
						CheckpointCost:  ck,
						RestoreCost:     rs,
						HostSuspendCost: hs,
						HostResumeCost:  hr,
						// TrunkSlowdown stays off: with stretch factor 1
						// the progress invariant is exact, not
						// approximate.
					})
				}
			}
		}
	}
	return cfgs
}

func TestPropertyResidencyCapacityProgress(t *testing.T) {
	const nodes, count = 32, 200
	for _, cfg := range propertyConfigs() {
		cfg := cfg
		name := fmt.Sprintf("%v/preempt=%v/quantum=%v/host=%v", cfg.Policy, cfg.Preempt, cfg.Quantum, cfg.SuspendToHost)
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				cfg.Cluster = newTestCluster(nodes)
				s := newChecked(t, cfg)
				submitAll(t, s, SyntheticStream(seed, count, nodes, 5*time.Second))
				rep := s.Run()
				if len(rep.Jobs) != count || rep.Failed != 0 {
					t.Fatalf("seed %d: finished %d of %d jobs, %d failed", seed, len(rep.Jobs), count, rep.Failed)
				}
			}
		})
	}
}

// TestQuantumDeterminism extends the event-loop determinism guard to
// time-slicing: the same arrival-staggered mix under the same policy,
// quantum, and preemption setting twice must reproduce the makespan,
// the waits, every job's lifecycle, and every job's slice count — the
// property CI's -race job leans on to catch unsynchronized state.
func TestQuantumDeterminism(t *testing.T) {
	const nodes, count = 32, 200
	run := func(cfg Config, seed int64) Report {
		cfg.Cluster = newTestCluster(nodes)
		s := New(cfg)
		submitAll(t, s, SyntheticStream(seed, count, nodes, 5*time.Second))
		return s.Run()
	}
	for _, cfg := range propertyConfigs() {
		if cfg.Quantum == 0 && !cfg.Preempt {
			continue // covered by TestEventLoopDeterminism
		}
		a, b := run(cfg, 21), run(cfg, 21)
		if a.Makespan != b.Makespan || a.AvgWait != b.AvgWait || a.MaxWait != b.MaxWait {
			t.Fatalf("%v preempt=%v quantum=%v host=%v: replay diverged (%v/%v/%v vs %v/%v/%v)",
				cfg.Policy, cfg.Preempt, cfg.Quantum, cfg.SuspendToHost,
				a.Makespan, a.AvgWait, a.MaxWait, b.Makespan, b.AvgWait, b.MaxWait)
		}
		if a.SliceEvents != b.SliceEvents || a.PreemptEvents != b.PreemptEvents ||
			a.DrainWait != b.DrainWait || a.RestoreWait != b.RestoreWait ||
			a.HostSuspends != b.HostSuspends || a.Demotions != b.Demotions {
			t.Fatalf("%v preempt=%v quantum=%v host=%v: suspension accounting diverged (%d/%d/%v/%v/%d/%d vs %d/%d/%v/%v/%d/%d)",
				cfg.Policy, cfg.Preempt, cfg.Quantum, cfg.SuspendToHost,
				a.SliceEvents, a.PreemptEvents, a.DrainWait, a.RestoreWait, a.HostSuspends, a.Demotions,
				b.SliceEvents, b.PreemptEvents, b.DrainWait, b.RestoreWait, b.HostSuspends, b.Demotions)
		}
		byID := make(map[int]*Job, len(b.Jobs))
		for _, j := range b.Jobs {
			byID[j.ID] = j
		}
		for _, j := range a.Jobs {
			k := byID[j.ID]
			if k == nil || j.Start != k.Start || j.End != k.End || j.TimeSlices() != k.TimeSlices() {
				t.Fatalf("%v preempt=%v quantum=%v: job %d lifecycle/slices diverged",
					cfg.Policy, cfg.Preempt, cfg.Quantum, j.ID)
			}
		}
	}
}

// TestQuantumSliceCountsPlausible sanity-checks that the crossed
// property runs actually exercise the round-robin path: with a quantum
// on, at least one configuration must record slice suspensions (a
// vacuous property pass over schedules that never slice would prove
// nothing); checkSchedule holds the report's sliced-job count to the
// per-job ones.
func TestQuantumSliceCountsPlausible(t *testing.T) {
	ck, rs := fixedCosts(200*time.Millisecond, 100*time.Millisecond)
	s := newChecked(t, Config{Cluster: newTestCluster(32), Policy: Backfill,
		Quantum: 5 * time.Second, CheckpointCost: ck, RestoreCost: rs})
	submitAll(t, s, SyntheticStream(1, 200, 32, 5*time.Second))
	if rep := s.Run(); rep.SliceEvents == 0 || rep.Sliced == 0 {
		t.Fatal("property mix never sliced under a 5s quantum — invariants are vacuous")
	}
}
