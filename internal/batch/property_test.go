package batch

import (
	"fmt"
	"testing"
	"time"
)

// Property tests over randomized arrival-staggered mixes, crossing
// every queue discipline with time-slicing and preemption on and off.
// The invariants are the ones the event loop's new notion of "running"
// (a gang may be resident-but-suspended) must never break:
//
//  1. single residency — a job never has two overlapping run segments,
//     no matter how many times it was suspended and redispatched;
//  2. capacity — reconstructed per-node occupancy never double-books a
//     node and per-node busy accounting never exceeds the makespan;
//  3. banked progress — every job's node-holding time is exactly its
//     true work plus the checkpoint/restore overhead charged to it
//     (nothing lost, nothing invented, across any number of slices
//     and preemptions).

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
	DebugVerifyShadows = true
	defer func() { DebugVerifyShadows = false }()

	const nodes, count = 32, 200
	for _, cfg := range propertyConfigs() {
		cfg := cfg
		name := fmt.Sprintf("%v/preempt=%v/quantum=%v/host=%v", cfg.Policy, cfg.Preempt, cfg.Quantum, cfg.SuspendToHost)
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				cfg.Cluster = newTestCluster(nodes)
				s := New(cfg)
				submitAll(t, s, SyntheticStream(seed, count, nodes, 5*time.Second))
				rep := s.Run()
				if len(rep.Jobs) != count || rep.Failed != 0 {
					t.Fatalf("seed %d: finished %d of %d jobs, %d failed", seed, len(rep.Jobs), count, rep.Failed)
				}
				checkNoOverlap(t, rep.Jobs, nodes) // capacity: no node double-booked
				for _, j := range rep.Jobs {
					if j.State != Done {
						t.Fatalf("seed %d: %s ended %v", seed, j, j.State)
					}
					// Single residency: run segments are disjoint and
					// ordered; segment count matches the suspension
					// history exactly.
					segments := j.Segments()
					for i, seg := range segments {
						if seg.End < seg.Start {
							t.Fatalf("seed %d: %s segment %d runs backwards: %+v", seed, j, i, seg)
						}
						if i > 0 && seg.Start < segments[i-1].End {
							t.Fatalf("seed %d: %s resident twice: segment %d starts %v before segment %d ends %v",
								seed, j, i, seg.Start, i-1, segments[i-1].End)
						}
					}
					if want := j.TimeSlices() + j.Preemptions() + j.Faults() + j.Banks() + 1; len(segments) != want {
						t.Fatalf("seed %d: %s has %d segments, want %d (%d slices + %d preemptions + %d faults + %d banks + final)",
							seed, j, len(segments), want, j.TimeSlices(), j.Preemptions(), j.Faults(), j.Banks())
					}
					// Banked progress: busy time == true runtime +
					// charged overhead (+ work faults destroyed, zero
					// here). The only slack allowed is the scheduler's
					// millisecond floor on degenerate sub-millisecond
					// segments.
					diff := j.BusyTime() - j.Estimate() - j.CheckpointOverhead() - j.LostWork()
					if diff < 0 {
						diff = -diff
					}
					if diff > 5*time.Millisecond {
						t.Fatalf("seed %d: %s busy %v != est %v + overhead %v (diff %v)",
							seed, j, j.BusyTime(), j.Estimate(), j.CheckpointOverhead(), diff)
					}
				}
				// Node-busy accounting never exceeds capacity.
				var totalBusy time.Duration
				for i, b := range rep.NodeBusy {
					if b < 0 || b > rep.Makespan {
						t.Fatalf("seed %d: node %d busy %v exceeds makespan %v", seed, i, b, rep.Makespan)
					}
					totalBusy += b
				}
				if limit := time.Duration(nodes) * rep.Makespan; totalBusy > limit {
					t.Fatalf("seed %d: total busy %v exceeds machine capacity %v", seed, totalBusy, limit)
				}
				if rep.Utilization <= 0 || rep.Utilization > 1 {
					t.Fatalf("seed %d: utilization %.3f out of range", seed, rep.Utilization)
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
	DebugVerifyShadows = true
	defer func() { DebugVerifyShadows = false }()

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
// nothing).
func TestQuantumSliceCountsPlausible(t *testing.T) {
	ck, rs := fixedCosts(200*time.Millisecond, 100*time.Millisecond)
	s := New(Config{Cluster: newTestCluster(32), Policy: Backfill,
		Quantum: 5 * time.Second, CheckpointCost: ck, RestoreCost: rs})
	submitAll(t, s, SyntheticStream(1, 200, 32, 5*time.Second))
	rep := s.Run()
	if rep.SliceEvents == 0 {
		t.Fatal("property mix never sliced under a 5s quantum — invariants are vacuous")
	}
	var sliced int
	for _, j := range rep.Jobs {
		if j.TimeSlices() > 0 {
			sliced++
		}
	}
	if sliced != rep.Sliced {
		t.Fatalf("report counts %d sliced jobs, per-job counts say %d", rep.Sliced, sliced)
	}
}
