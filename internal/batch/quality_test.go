package batch

import (
	"testing"
	"time"
)

// quality is what one reference run is pinned on: virtual-time figures
// and counts of the schedule it produced, all exact for a given seed.
type quality struct {
	makespan, avgWait      time.Duration
	drainWait, restoreWait time.Duration
	ckptCost               time.Duration // CheckpointOverhead + DemotionTime
	lostWork               time.Duration
	faultKills, banks      int
	done                   int
}

// TestScheduleQualityPinned holds the schedule-quality figures of the
// reference configurations to the nanosecond: 200 jobs of seed 42 on
// the paper's 32 nodes, per policy as the all-at-once mix, as staggered
// arrivals under preemption and a 300 s quantum (only staggered
// arrivals make every policy suspend) with and without the
// suspend-to-host tier, and EASY through a seeded failure storm with
// proactive checkpointing. These are functions of the seed alone, so
// any drift is a change of scheduling, checkpoint-cost or recovery
// behaviour, never noise; a change that means to move one re-pins it
// here and says why.
func TestScheduleQualityPinned(t *testing.T) {
	const nodes, seed, jobs = 32, 42, 200
	mix := func() []*Job { return SyntheticMix(seed, jobs, nodes) }
	stream := func() []*Job { return SyntheticStream(seed, jobs, nodes, 5*time.Second) }
	ckpt := func(pol Policy, host bool) Config {
		return Config{Policy: pol, TrunkSlowdown: 1.1, Preempt: true,
			Quantum: 300 * time.Second, SuspendToHost: host}
	}
	cases := []struct {
		name string
		cfg  Config
		jobs func() []*Job
		want quality
	}{
		{"mix/fifo", Config{Policy: FIFO, TrunkSlowdown: 1.1}, mix,
			quality{makespan: 479540835501, avgWait: 253785984900, done: 200}},
		{"mix/easy", Config{Policy: Backfill, TrunkSlowdown: 1.1}, mix,
			quality{makespan: 432915090057, avgWait: 97273624320, done: 200}},
		{"mix/conservative", Config{Policy: Conservative, TrunkSlowdown: 1.1}, mix,
			quality{makespan: 431778546886, avgWait: 112195354344, done: 200}},
		{"mix/fairshare", Config{Policy: FairShare, TrunkSlowdown: 1.1}, mix,
			quality{makespan: 434032589361, avgWait: 82002318206, done: 200}},

		{"ckpt/fifo", ckpt(FIFO, false), stream,
			quality{makespan: 1015872879512, avgWait: 5504881655, drainWait: 1283460839,
				restoreWait: 409431014, ckptCost: 8485271561, done: 200}},
		{"ckpt/easy", ckpt(Backfill, false), stream,
			quality{makespan: 1015872879512, avgWait: 1312210669, drainWait: 1283460839,
				restoreWait: 409431014, ckptCost: 8485271561, done: 200}},
		{"ckpt/conservative", ckpt(Conservative, false), stream,
			quality{makespan: 1015872879512, avgWait: 1238850585, drainWait: 1283460839,
				restoreWait: 409431014, ckptCost: 8485271561, done: 200}},
		{"ckpt/fairshare", ckpt(FairShare, false), stream,
			quality{makespan: 1015872879512, avgWait: 1296944928, drainWait: 1864894733,
				restoreWait: 799479327, ckptCost: 13990648061, done: 200}},

		{"ckpt-host/fifo", ckpt(FIFO, true), stream,
			quality{makespan: 1015872879512, avgWait: 5435007185, ckptCost: 5833433830, done: 200}},
		{"ckpt-host/easy", ckpt(Backfill, true), stream,
			quality{makespan: 1015872879512, avgWait: 1275812748, ckptCost: 4738635674, done: 200}},
		{"ckpt-host/conservative", ckpt(Conservative, true), stream,
			quality{makespan: 1015872879512, avgWait: 1219050249, ckptCost: 4926569790, done: 200}},
		{"ckpt-host/fairshare", ckpt(FairShare, true), stream,
			quality{makespan: 1015872879512, avgWait: 1248801113, ckptCost: 8179380238, done: 200}},

		// The interval sits well under the quantum so that proactive
		// banks arm before a slice boundary; no trunk stretch.
		{"storm/easy", Config{Policy: Backfill, Preempt: true, Quantum: 300 * time.Second,
			Faults:             GenFaultPlan(seed, nodes, 24*time.Hour, 10*time.Minute),
			CheckpointInterval: time.Minute}, stream,
			quality{makespan: 1022330166237, avgWait: 2310136819, drainWait: 3480242170,
				restoreWait: 509540929, ckptCost: 13283171734, lostWork: 230667228538,
				faultKills: 23, banks: 1, done: 200}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Cluster = newTestCluster(nodes)
			s := New(cfg)
			submitAll(t, s, tc.jobs())
			rep := s.Run()
			got := quality{
				makespan: rep.Makespan, avgWait: rep.AvgWait,
				drainWait: rep.DrainWait, restoreWait: rep.RestoreWait,
				ckptCost: rep.CheckpointOverhead + rep.DemotionTime,
				lostWork: rep.LostWork, faultKills: rep.FaultKills, banks: rep.Banks,
			}
			for _, j := range rep.Jobs {
				if j.State == Done {
					got.done++
				}
			}
			if got != tc.want {
				t.Errorf("schedule quality moved:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
