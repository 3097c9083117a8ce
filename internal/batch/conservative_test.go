package batch

import (
	"fmt"
	"testing"
	"time"

	"gpucluster/internal/netsim"
)

// The reused plan against the full re-plan. With replanAll set, every
// conservative sweep searches the profile for every job, as the pass
// did before it kept the last sweep's reservations — so the switch is
// the oracle: reuse must produce the same schedule, job for job and
// promise for promise, in the same number of sweeps.

// conservativeCases is every configuration the reuse is held to: the
// conservative draws among randomSweepCase's first seeds, and
// propertyConfigs' conservative crosses on the property stream with
// and without the fault storm (forcing the other crosses to
// Conservative would repeat these).
func conservativeCases(seeds int) []sweepCase {
	var cases []sweepCase
	for seed := int64(1); seed <= int64(seeds); seed++ {
		if c := randomSweepCase(seed); c.cfg.Policy == Conservative {
			cases = append(cases, c)
		}
	}
	crosses := propertyConfigs()
	crosses = append(crosses, stormConfigs(1)...)
	for _, cfg := range crosses {
		if cfg.Policy != Conservative {
			continue
		}
		cases = append(cases, sweepCase{
			name: fmt.Sprintf("property preempt=%v quantum=%v host=%v faults=%v interval=%v",
				cfg.Preempt, cfg.Quantum, cfg.SuspendToHost, cfg.Faults != nil, cfg.CheckpointInterval),
			cfg:     cfg,
			cluster: func() *Cluster { return newTestCluster(32) },
			jobs:    func() []*Job { return SyntheticStream(1, 200, 32, 5*time.Second) },
		})
	}
	return cases
}

// reuseCauseCases isolate what makes a sweep search again: each is an
// exact-estimate conservative drain with one cause switched on, of one
// mix where the cause allows. The first, with none, must search each job
// once.
func reuseCauseCases() []sweepCase {
	ck, rs := fixedCosts(200*time.Millisecond, 100*time.Millisecond)
	mix := func() []*Job { return SyntheticMix(3, 150, 32) }
	cluster := func() *Cluster { return newTestCluster(32) }
	return []sweepCase{
		{name: "none", cfg: Config{Policy: Conservative}, cluster: cluster, jobs: mix},
		{name: "Actual jitter", cfg: Config{Policy: Conservative, Actual: func(j *Job, est time.Duration) time.Duration {
			if j.ID%2 == 1 {
				return est * 13 / 10
			}
			return est * 9 / 10
		}}, cluster: cluster, jobs: mix},
		{name: "faults", cfg: Config{Policy: Conservative, Faults: stormPlan(5)}, cluster: cluster, jobs: mix},
		// No mix preempts: a lower-priority gang runs only where it
		// delays no reservation. The urgent job arrives to an empty
		// queue, so its arrival re-plans nothing; the checkpoint it
		// starts does.
		{name: "preemption", cfg: Config{Policy: Conservative, Preempt: true, CheckpointCost: ck, RestoreCost: rs},
			cluster: func() *Cluster { return newTestCluster(8) },
			jobs: func() []*Job {
				return []*Job{ruleJob("low", 8, 0, 500*time.Second, 0), ruleJob("urgent", 8, 9, 30*time.Second, 10*time.Second)}
			}},
		{name: "arrivals", cfg: Config{Policy: Conservative}, cluster: cluster,
			jobs: func() []*Job { return SyntheticStream(3, 150, 32, 5*time.Second) }},
	}
}

// reuseMatchesReplan runs c reusing the plan and re-planning every
// sweep and reports the first disagreement, or "".
func reuseMatchesReplan(c sweepCase) (reused, replanned sweepOutcome, diff string) {
	oracle := c
	oracle.replan = true
	reused, replanned = c.run(false), oracle.run(false)
	if d := reused.diff(replanned); d != "" {
		return reused, replanned, d
	}
	if reused.passes != replanned.passes {
		return reused, replanned, fmt.Sprintf("%d sweeps where the full re-plan takes %d", reused.passes, replanned.passes)
	}
	return reused, replanned, ""
}

// TestConservativeReuseMatchesReplan is the differential test: every
// conservative configuration runs once reusing the last sweep's plan and
// once re-planning every sweep, and the two must agree. It is vacuous
// unless reservations are both reused and searched again, and unless
// each cause of a new search — estimate jitter, faults, preemption,
// arrivals — produces some.
func TestConservativeReuseMatchesReplan(t *testing.T) {
	DebugVerifyShadows = true
	defer func() { DebugVerifyShadows = false }()

	seeds := 2400
	if testing.Short() {
		seeds = 300
	}
	var reused, searched int
	held := func(c sweepCase) sweepOutcome {
		got, want, d := reuseMatchesReplan(c)
		if d != "" {
			t.Errorf("%s: reused plan diverges from the full re-plan: %s", c.name, d)
		}
		reused += want.searches - got.searches
		searched += got.searches
		return got
	}
	for _, c := range conservativeCases(seeds) {
		held(c)
	}
	for _, c := range reuseCauseCases() {
		out := held(c)
		again := out.searches - len(out.jobs) // every job is searched once, in its first sweep
		switch {
		case c.name == "none" && again != 0:
			t.Errorf("%s: %d searches for %d jobs: an exact drain re-planned", c.name, out.searches, len(out.jobs))
		case c.name != "none" && again == 0:
			t.Errorf("%s: never searched a job again: the cause is not exercised", c.name)
		}
	}
	if reused == 0 || searched == 0 {
		t.Fatalf("%d reservations reused, %d searched: the comparison is vacuous", reused, searched)
	}
	t.Logf("%d reservations reused, %d searched", reused, searched)
}

// FuzzConservativeReuseMatchesReplan draws a randomSweepCase from the
// seed, forces it to Conservative and holds the reused plan to the full
// re-plan. A case gets 20,000 scheduling rounds, ten times the most a
// draining one took over the first 1,500 seeds; one that the full
// re-plan cannot drain in them either is the checkpoint thrash ROADMAP
// item 2 (b) records, not a reuse bug, and is skipped.
func FuzzConservativeReuseMatchesReplan(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64) {
		c := randomSweepCase(seed)
		c.cfg.Policy = Conservative
		c.roundCap = 20000
		got, want, d := reuseMatchesReplan(c)
		if want.capped && got.capped {
			t.Skipf("%s: drains under neither side", c.name)
		}
		if d != "" {
			t.Fatalf("%s (forced conservative): reused plan diverges from the full re-plan: %s", c.name, d)
		}
	})
}

// TestConservativeSearchesPerJob pins the reuse with a count where a
// clock cannot gate: an exact-estimate drain of 2,000 jobs on 256 nodes
// (batch-drain's conservative leg at five times its depth) searches the
// profile at most twice a job. Re-planning every sweep searched it about
// 1.96 million times.
func TestConservativeSearchesPerJob(t *testing.T) {
	const nodes, jobs = 256, 2000
	c := sweepCase{cfg: Config{Policy: Conservative},
		cluster: func() *Cluster { return NewCluster(nodes, netsim.GigabitSwitch(nodes)) },
		jobs:    func() []*Job { return SyntheticMix(1, jobs, nodes) }}
	out := c.run(false)
	if len(out.jobs) != jobs || out.rep.Failed != 0 {
		t.Fatalf("admitted %d of %d jobs, %d failed", len(out.jobs), jobs, out.rep.Failed)
	}
	if out.searches > 2*jobs {
		t.Fatalf("%d profile searches for %d jobs in %d sweeps, want at most %d", out.searches, jobs, out.passes, 2*jobs)
	}
	t.Logf("%d profile searches for %d jobs in %d sweeps", out.searches, jobs, out.passes)
}

// TestHorizonReservationDownNode pins the first way a job fits no
// window under the profile: with a node down, the profile counts it busy
// for ever, so a gang that needs every node violates the tail even
// though its cap is 0 >= 0. H arrives at 20 s to four nodes, one down
// since 10 s until 1h10s and two running R until 100 s. Its reservation
// is the horizon, R's end, and it starts when the node is repaired.
func TestHorizonReservationDownNode(t *testing.T) {
	const sec = time.Second
	s := New(Config{Cluster: newTestCluster(4), Policy: Conservative,
		Faults: &FaultPlan{Crashes: []NodeFault{{Node: 3, At: 10 * sec, Repair: time.Hour}}}})
	r := ruleJob("R", 2, 1, 100*sec, 0)
	h := ruleJob("H", 4, 0, 10*sec, 20*sec)
	submitAll(t, s, []*Job{r, h})
	rep := s.Run()
	if h.promise != 100*sec {
		t.Fatalf("H reserved at %v, want 100s (the profile's horizon)", h.promise)
	}
	if h.State != Done || h.Start != time.Hour+10*sec {
		t.Fatalf("H %v from %v, want done from 1h0m10s (the repair)", h.State, h.Start)
	}
	checkNoOverlap(t, rep.Jobs, 4)
}

// TestHorizonReservationPinnedImage pins the second way: suspended to
// host, V's image pins 63 MB of each of its two 100 MB nodes, so fewer
// nodes are eligible for B than B is wide and its cap is negative. B
// arrives at 20 s and is reserved at the horizon, L's end at 200 s; at
// 41 s, U done, the image is demoted and B starts when the write
// settles at 50 s.
func TestHorizonReservationPinnedImage(t *testing.T) {
	const sec = time.Second
	ck, rs := fixedCosts(10*sec, 5*sec)
	hs, hr := fixedHostCosts(sec, sec)
	s := New(Config{Cluster: memSqueezedCluster(3), Policy: Conservative,
		Preempt: true, SuspendToHost: true,
		CheckpointCost: ck, RestoreCost: rs, HostSuspendCost: hs, HostResumeCost: hr})
	big := [3]int{256, 256, 120} // ~63 MB per node
	v := &Job{Name: "V", Kind: KindPDE, Nodes: 2, Priority: 1, Est: 500 * sec, Problem: big}
	l := &Job{Name: "L", Kind: KindCG, Nodes: 1, Priority: 2, Est: 200 * sec}
	u := &Job{Name: "U", Kind: KindPDE, Nodes: 2, Priority: 9, Est: 30 * sec, Submit: 10 * sec, Problem: [3]int{64, 64, 16}}
	b := &Job{Name: "B", Kind: KindPDE, Nodes: 2, Priority: 5, Est: 20 * sec, Submit: 20 * sec, Problem: big}
	submitAll(t, s, []*Job{v, l, u, b})
	rep := s.Run()
	if b.promise != 200*sec {
		t.Fatalf("B reserved at %v, want 200s (the profile's horizon)", b.promise)
	}
	if b.State != Done || b.Start != 50*sec {
		t.Fatalf("B %v from %v, want done from 50s (the demotion settles)", b.State, b.Start)
	}
	if rep.HostSuspends != 1 || rep.Demotions != 1 {
		t.Fatalf("host suspensions %d / demotions %d, want 1 / 1", rep.HostSuspends, rep.Demotions)
	}
	checkNoOverlap(t, rep.Jobs, 3)
}
