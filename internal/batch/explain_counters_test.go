package batch

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"
)

// ExplainEvents aggregates the EvBlocked events concerning one job: the
// scan of the whole log that the per-job counter rows replaced, kept as
// their reference.
func ExplainEvents(events []Event, jobID int) Explanation {
	var counts [numBlockReasons]int
	total := 0
	for _, ev := range events {
		if ev.Kind != EvBlocked || ev.Job != jobID {
			continue
		}
		counts[ev.Reason]++
		total++
	}
	e := Explanation{JobID: jobID, BlockedPasses: total}
	for r, n := range counts {
		if n > 0 {
			e.Counts = append(e.Counts, BlockCount{Reason: BlockReason(r), Passes: n})
		}
	}
	sort.SliceStable(e.Counts, func(i, k int) bool { return e.Counts[i].Passes > e.Counts[k].Passes })
	return e
}

// TestExplainCountersMatchEventLog checks the counter-derived
// explanation of every job, field for field, against a scan of the full
// event log a MemRecorder kept of the same run: across policy, preempt,
// quantum, suspend-to-host and a fault storm, part-way through the run,
// and after a round of cancels whose specs are submitted again.
func TestExplainCountersMatchEventLog(t *testing.T) {
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
	for pi, pol := range Policies() {
		for ci, cc := range configs {
			for _, storm := range []bool{false, true} {
				seed := int64(11 + 4*pi + ci)
				name := fmt.Sprintf("%v/%s/storm=%v", pol, cc.name, storm)
				t.Run(name, func(t *testing.T) {
					cfg := Config{
						Cluster:       newTestCluster(nodes),
						Policy:        pol,
						TrunkSlowdown: 1.1,
						Preempt:       cc.preempt,
						Quantum:       cc.quantum,
						SuspendToHost: cc.suspend,
						Recorder:      &MemRecorder{},
					}
					if storm {
						cfg.Faults = GenFaultPlan(seed, nodes, 4*time.Hour, 10*time.Minute)
					}
					e := NewEngine(cfg, nil)
					jobs := SyntheticStream(seed, count, nodes, 5*time.Second)
					for _, j := range jobs {
						if _, err := e.Ingest(j); err != nil {
							t.Fatal(err)
						}
					}
					check := func(when string, ids int) (blocked int) {
						rep := e.Report()
						for id := 1; id <= ids; id++ {
							want := ExplainEvents(rep.Events, id)
							if got := rep.Explain(id); !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: Report.Explain(%d) = %+v, event log says %+v", when, id, got, want)
							}
							got, err := e.Explain(id)
							if err != nil || !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: Engine.Explain(%d) = %+v, %v, event log says %+v", when, id, got, err, want)
							}
							blocked += want.BlockedPasses
						}
						return blocked
					}

					e.RunUntil(5 * time.Minute)
					check("mid-run", count)

					// Cancel every fifth live job and submit its spec again:
					// the old ID keeps its row, the new one starts from zero.
					ids := count
					for i, st := range e.Snapshot().Jobs {
						if i%5 != 0 {
							continue
						}
						if err := e.Cancel(st.ID); err != nil {
							t.Fatalf("cancel %d: %v", st.ID, err)
						}
						id, err := e.Ingest(&Job{Name: st.Name, Kind: st.Kind, Nodes: int(st.Nodes),
							Priority: st.Priority, User: st.User, Est: st.Estimate})
						if err != nil {
							t.Fatalf("submit %s again: %v", st.Name, err)
						}
						if got, _ := e.Explain(id); got.BlockedPasses != 0 {
							t.Fatalf("job %d explains %+v before any pass saw it", id, got)
						}
						ids = id
					}
					if ids == count {
						t.Fatal("no job was live to cancel part-way through the run")
					}
					check("after cancel and submit", ids)

					e.Run()
					if check("drained", ids) == 0 {
						t.Fatal("contended run counted no blocked pass")
					}
				})
			}
		}
	}
}

// TestExplanationTieBreak pins what the differential test only meets by
// chance: equal counts come out in reason order, behind larger ones.
func TestExplanationTieBreak(t *testing.T) {
	var row blockRow
	row[ReasonShadow] = 2
	row[ReasonHeadOfLine] = 2
	row[ReasonFault] = 5
	row[ReasonLinkBusy] = 1
	var events []Event
	for r, n := range row {
		for ; n > 0; n-- {
			events = append(events, Event{Kind: EvBlocked, Job: 3, Reason: BlockReason(r)})
		}
	}
	got, want := explanationOf(&row, 3), ExplainEvents(events, 3)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("explanationOf = %+v, event log says %+v", got, want)
	}
	order := []BlockReason{ReasonFault, ReasonHeadOfLine, ReasonShadow, ReasonLinkBusy}
	for i, c := range got.Counts {
		if c.Reason != order[i] {
			t.Fatalf("counts ordered %+v, want reasons %v", got.Counts, order)
		}
	}
	// A job with no row (no recorder) and one never passed over both
	// explain as never blocked.
	for _, r := range []*blockRow{nil, new(blockRow)} {
		if e := explanationOf(r, 4); e.BlockedPasses != 0 || e.Counts != nil || e.JobID != 4 {
			t.Fatalf("explanationOf(%v) = %+v, want never blocked", r, e)
		}
	}
}
