package batch

import (
	"testing"
	"time"
)

// TestMassRedispatchSerializesOnReadLink is the restore-pricing-bug
// regression, the read-side mirror of TestContendedDrainMatchesSum: K
// checkpointed victims re-dispatched at the same instant share the
// store link's read direction, so their restore transfers serialize —
// each later job's segment carries the queue wait ahead of its
// transfer. Under the old pricing every restore assumed the full
// Gigabit link: all three segments would have ended at the first one's
// time, crediting the re-dispatch wave with 3x the read bandwidth that
// exists.
func TestMassRedispatchSerializesOnReadLink(t *testing.T) {
	const drain, restore = 4 * time.Second, 6 * time.Second
	ck, rs := fixedCosts(drain, restore)
	s := newChecked(t, Config{Cluster: newTestCluster(24), Policy: Backfill,
		Preempt: true, CheckpointCost: ck, RestoreCost: rs})
	var victims []*Job
	for i := 0; i < 3; i++ {
		victims = append(victims, &Job{Name: "victim", Nodes: 8, Priority: 0, Est: 500 * time.Second})
	}
	urgent := &Job{Name: "urgent", Nodes: 24, Priority: 9,
		Est: 50 * time.Second, Submit: 10 * time.Second}
	submitAll(t, s, append(victims, urgent))
	rep := s.Run()

	// Drain side (pinned since PR 4): wave start + 3 serialized drains.
	if want := 10*time.Second + 3*drain; urgent.Start != want {
		t.Fatalf("urgent started %v, want %v (serialized drains)", urgent.Start, want)
	}
	if rep.DrainWait != 3*drain {
		t.Fatalf("drain wait %v, want %v", rep.DrainWait, 3*drain)
	}
	// Restore side (this PR): the urgent job ends at 72s and all three
	// victims re-dispatch in the same scheduling pass — but their
	// restores queue on the read link. Work left is 490s each (10s ran
	// before the wave), so the ends stagger by one transfer each.
	for i, v := range victims {
		if segs := v.Segments(); len(segs) != 2 || segs[1].Start != 72*time.Second {
			t.Fatalf("victim %d segments %+v, want re-dispatch at 72s", i, segs)
		}
	}
	ends := []time.Duration{568 * time.Second, 574 * time.Second, 580 * time.Second}
	for i, want := range ends {
		if victims[i].End != want {
			t.Fatalf("victim %d ended %v, want %v (restore prefix %v)",
				i, victims[i].End, want, time.Duration(i+1)*restore)
		}
	}
	// The second restore queued one transfer, the third two.
	if want := 3 * restore; rep.RestoreWait != want {
		t.Fatalf("restore wait %v, want %v", rep.RestoreWait, want)
	}
}

// TestHalfDuplexSharesOneTimeline pins Config.StoreDuplex: on a
// half-duplex link a drain queues behind an in-flight restore (the two
// directions share the wire), while full duplex books them on
// independent timelines.
func TestHalfDuplexSharesOneTimeline(t *testing.T) {
	run := func(d Duplex) (*Job, Report) {
		ck, rs := fixedCosts(4*time.Second, 10*time.Second)
		s := newChecked(t, Config{Cluster: newTestCluster(16), Policy: Backfill,
			Preempt: true, StoreDuplex: d, CheckpointCost: ck, RestoreCost: rs})
		v1 := &Job{Name: "v1", Nodes: 8, Priority: 5, Est: 500 * time.Second}
		u1 := &Job{Name: "u1", Nodes: 16, Priority: 9, Est: 30 * time.Second, Submit: 10 * time.Second}
		v2 := &Job{Name: "v2", Nodes: 8, Priority: 1, Est: 500 * time.Second, Submit: 44 * time.Second}
		u2 := &Job{Name: "u2", Nodes: 8, Priority: 8, Est: 20 * time.Second, Submit: 46 * time.Second}
		submitAll(t, s, []*Job{v1, u1, v2, u2})
		rep := s.Run()
		for _, j := range rep.Jobs {
			if j.State != Done {
				t.Fatalf("duplex=%v: %s ended %v", d, j, j.State)
			}
		}
		return u2, rep
	}
	// Timeline: v1 drains [10,14), u1 runs [14,44). At 44 v1
	// re-dispatches with its restore riding the read direction over
	// [44,54) while v2 starts fresh on the other gang. At 46 u2
	// preempts v2, whose 4s drain wants the write direction.
	half, halfRep := run(HalfDuplex)
	full, fullRep := run(FullDuplex)
	// Full duplex: the drain starts immediately, [46,50).
	if full.Start != 50*time.Second {
		t.Fatalf("full-duplex u2 started %v, want 50s (drain independent of the restore)", full.Start)
	}
	if fullRep.DrainWait != 0 {
		t.Fatalf("full-duplex drain wait %v, want 0", fullRep.DrainWait)
	}
	// Half duplex: the wire is busy with v1's restore until 54, so the
	// drain runs [54,58) and u2 starts 8s later.
	if half.Start != 58*time.Second {
		t.Fatalf("half-duplex u2 started %v, want 58s (drain queued behind the in-flight restore)", half.Start)
	}
	if halfRep.DrainWait != 8*time.Second {
		t.Fatalf("half-duplex drain wait %v, want 8s behind the restore", halfRep.DrainWait)
	}
}

// TestRestorePreemptedMidQueueRefundsAndFreesLink pins the refund path
// for a restore cancelled before its transfer began: the whole unused
// prefix (queue wait and transfer) is refunded from the job's overhead,
// the wait that was charged but never served comes off RestoreWait, and
// the cancelled tail reservation frees the read link — observable here
// because the victim's own later re-dispatch would otherwise queue
// behind its ghost reservation.
func TestRestorePreemptedMidQueueRefundsAndFreesLink(t *testing.T) {
	ck, rs := fixedCosts(2*time.Second, 10*time.Second)
	s := newChecked(t, Config{Cluster: newTestCluster(24), Policy: Backfill,
		Preempt: true, CheckpointCost: ck, RestoreCost: rs})
	v := &Job{Name: "v", Nodes: 8, Priority: 0, Est: 500 * time.Second}
	w := &Job{Name: "w", Nodes: 8, Priority: 1, Est: 500 * time.Second}
	x := &Job{Name: "x", Nodes: 8, Priority: 2, Est: 500 * time.Second}
	u1 := &Job{Name: "u1", Nodes: 24, Priority: 9, Est: 30 * time.Second, Submit: 10 * time.Second}
	u2 := &Job{Name: "u2", Nodes: 8, Priority: 9, Est: 20 * time.Second, Submit: 48 * time.Second}
	submitAll(t, s, []*Job{v, w, x, u1, u2})
	rep := s.Run()
	// Wave: drains v [10,12), w [12,14), x [14,16); u1 runs [16,46).
	// Re-dispatch at 46 in priority order books the read link: x
	// [46,56), w [56,66), v [66,76) — v is charged a 20s wait + 10s
	// transfer. At 48 u2 preempts v: its transfer never started, so
	// 28s of unused prefix is refunded, 18s of unserved wait comes off
	// RestoreWait (30s charged - 18s = 12s), and the link's tail rolls
	// back from 76s to 66s.
	if u2.Start != 50*time.Second {
		t.Fatalf("u2 started %v, want 50s (v's 2s drain)", u2.Start)
	}
	if rep.RestoreWait != 12*time.Second {
		t.Fatalf("restore wait %v, want 12s (x 0 + w 10 + v 20 - 18 refunded)", rep.RestoreWait)
	}
	if rep.DrainWait != 6*time.Second {
		t.Fatalf("drain wait %v, want 6s from the first wave", rep.DrainWait)
	}
	// v re-dispatches when u2 ends at 70: with the rollback its
	// restore starts immediately, [70,80), and it finishes its 490s at
	// 570. A ghost reservation to 76 would have pushed that to 576.
	if v.End != 570*time.Second {
		t.Fatalf("v ended %v, want 570s (read link freed by the cancelled reservation)", v.End)
	}
	if w.End != 556*time.Second || x.End != 546*time.Second {
		t.Fatalf("w/x ended %v/%v, want 556s/546s", w.End, x.End)
	}
	if got := v.CheckpointOverhead(); got != 16*time.Second {
		t.Fatalf("v overhead %v, want 16s (2+30-28+2+10)", got)
	}
}

// TestRestorePreemptedMidTransferRefunds pins the other cancellation
// case: the transfer was in flight, so only its untransferred tail is
// refunded — the wire time already spent stays charged, and busy time
// remains exactly work plus overhead across two preemptions.
func TestRestorePreemptedMidTransferRefunds(t *testing.T) {
	ck, rs := fixedCosts(2*time.Second, 10*time.Second)
	s := newChecked(t, Config{Cluster: newTestCluster(8), Policy: Backfill,
		Preempt: true, CheckpointCost: ck, RestoreCost: rs})
	v := &Job{Name: "v", Nodes: 8, Priority: 0, Est: 500 * time.Second}
	u1 := &Job{Name: "u1", Nodes: 8, Priority: 9, Est: 30 * time.Second, Submit: 10 * time.Second}
	u2 := &Job{Name: "u2", Nodes: 8, Priority: 9, Est: 20 * time.Second, Submit: 45 * time.Second}
	submitAll(t, s, []*Job{v, u1, u2})
	rep := s.Run()
	// v drains [10,12), u1 runs [12,42), v re-dispatches with its
	// restore transferring over [42,52). u2 preempts it at 45: 3s of
	// the reload ran (charged), 7s is refunded; v drains [45,47), u2
	// runs [47,67), and v's fresh restore rides [67,77).
	if u2.Start != 47*time.Second {
		t.Fatalf("u2 started %v, want 47s", u2.Start)
	}
	if v.End != 567*time.Second {
		t.Fatalf("v ended %v, want 567s (10s fresh restore + 490s left)", v.End)
	}
	if got := v.CheckpointOverhead(); got != 17*time.Second {
		t.Fatalf("v overhead %v, want 17s (2+10-7+2+10)", got)
	}
	if rep.RestoreWait != 0 {
		t.Fatalf("restore wait %v, want 0 (every transfer had the read link)", rep.RestoreWait)
	}
	if v.Preemptions() != 2 {
		t.Fatalf("v preempted %d times, want 2", v.Preemptions())
	}
}
