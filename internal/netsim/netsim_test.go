package netsim

import (
	"testing"
	"time"
)

func smallSwitch(ports int) *Network {
	cfg := GigabitSwitch(ports)
	return New(cfg)
}

func TestTransferBasics(t *testing.T) {
	n := smallSwitch(4)
	start, end := n.Transfer(0, 1, 125e6/10, 0) // 1/10 s of wire time at peak
	if start != 0 {
		t.Errorf("start = %v", start)
	}
	// 12.5 MB at 125 MB/s * 0.85 ≈ 117.6 ms, plus latency.
	if end < 100*time.Millisecond || end > 130*time.Millisecond {
		t.Errorf("end = %v", end)
	}
	if n.Stats.Transfers != 1 || n.Stats.Bytes != 125e5 {
		t.Errorf("stats = %+v", n.Stats)
	}
}

func TestThirdNodeInterruption(t *testing.T) {
	// The paper's observation (1): a third node sending to a busy node
	// breaks the smooth transfer. The interrupting transfer must wait
	// and pay the penalty.
	n := smallSwitch(4)
	_, end01 := n.Transfer(0, 1, 1<<20, 0)
	start21, end21 := n.Transfer(2, 1, 1<<20, 0) // interrupts port 1
	if start21 != end01 {
		t.Errorf("interrupting transfer started at %v, want %v", start21, end01)
	}
	plain := end01 // duration of an uncontended identical transfer
	dur21 := end21 - start21
	if dur21 <= plain {
		t.Errorf("interrupted transfer (%v) should cost more than clean one (%v)", dur21, plain)
	}
	if n.Stats.Interruptions != 1 {
		t.Errorf("interruptions = %d", n.Stats.Interruptions)
	}
}

func TestMoreNeighborsCostMore(t *testing.T) {
	// The paper's observation (2): the same total volume split across
	// more neighbors takes longer, because of per-message latency.
	const total = 1 << 20
	one := smallSwitch(8)
	_, endOne := one.Transfer(0, 1, total, 0)

	four := smallSwitch(8)
	var at time.Duration
	for i := 1; i <= 4; i++ {
		_, at = four.Transfer(0, i, total/4, at)
	}
	if at <= endOne {
		t.Errorf("4 messages (%v) should cost more than 1 message (%v)", at, endOne)
	}
}

func TestTransferQueuesOnBusySource(t *testing.T) {
	n := smallSwitch(4)
	_, end := n.Transfer(0, 1, 1<<20, 0)
	start2, _ := n.Transfer(0, 2, 1<<20, 0) // same source busy
	if start2 != end {
		t.Errorf("second transfer from busy source started at %v, want %v", start2, end)
	}
}

func TestStepTimesDisjointPairs(t *testing.T) {
	n := smallSwitch(8)
	ready := make([]time.Duration, 8)
	pairs := []Exchange{{0, 1, 1 << 20}, {2, 3, 1 << 20}, {4, 5, 1 << 20}}
	done := n.StepTimes(pairs, ready)
	// Concurrent disjoint pairs on a non-blocking switch finish at the
	// same time.
	if done[0] != done[2] || done[2] != done[4] {
		t.Errorf("concurrent pairs should finish together: %v %v %v", done[0], done[2], done[4])
	}
	// Nodes not in any pair are untouched.
	if done[6] != 0 || done[7] != 0 {
		t.Errorf("idle nodes moved: %v %v", done[6], done[7])
	}
}

func TestStepTimesRejectsOverlappingPairs(t *testing.T) {
	n := smallSwitch(4)
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping pairs should panic")
		}
	}()
	n.StepTimes([]Exchange{{0, 1, 10}, {1, 2, 10}}, make([]time.Duration, 4))
}

func TestStepTimesWaitsForBothPeers(t *testing.T) {
	n := smallSwitch(4)
	ready := []time.Duration{0, 50 * time.Millisecond, 0, 0}
	done := n.StepTimes([]Exchange{{0, 1, 1 << 10}}, ready)
	if done[0] < 50*time.Millisecond {
		t.Errorf("exchange should start when the later peer is ready: %v", done[0])
	}
}

func TestTrunkContention(t *testing.T) {
	// 28 ports on a 24-port non-blocking switch: exchanges crossing the
	// stacking trunk (exactly one endpoint >= 24) share its limited
	// bandwidth and are slower than on-switch exchanges; exchanges
	// between two stacked ports stay local to the second switch.
	cfg := GigabitSwitch(28)
	n := New(cfg)
	ready := make([]time.Duration, 28)
	pairs := []Exchange{
		{0, 1, 1 << 20},   // primary switch, local
		{24, 25, 1 << 20}, // both stacked: local to second switch
		{2, 26, 1 << 20},  // crosses the trunk
		{3, 27, 1 << 20},  // crosses the trunk
	}
	done := n.StepTimes(pairs, ready)
	if done[24] != done[0] {
		t.Errorf("stacked-local exchange (%v) should match on-switch (%v)", done[24], done[0])
	}
	if done[26] <= done[0] {
		t.Errorf("trunk exchange (%v) should be slower than local (%v)", done[26], done[0])
	}
	if done[26] != done[27] {
		t.Errorf("equal trunk exchanges should finish together: %v vs %v", done[26], done[27])
	}
	// Two crossing exchanges halve the per-direction trunk rate; the
	// slowdown vs a local flow is (link rate / (trunk/2)), here
	// 125/(14/2) ~ 17.9x.
	ratio := float64(done[26]) / float64(done[0])
	if ratio < 12 || ratio > 25 {
		t.Errorf("trunk slowdown ratio = %.2f, want ~18", ratio)
	}
}

func TestNoTrunkWhenAllPortsNonBlocking(t *testing.T) {
	cfg := GigabitSwitch(16) // 16 <= 24: everything on the primary switch
	n := New(cfg)
	ready := make([]time.Duration, 16)
	done := n.StepTimes([]Exchange{{0, 15, 1 << 20}}, ready)
	n2 := New(cfg)
	done2 := n2.StepTimes([]Exchange{{0, 1, 1 << 20}}, make([]time.Duration, 16))
	if done[15] != done2[1] {
		t.Errorf("port index must not matter below NonBlockingPorts: %v vs %v", done[15], done2[1])
	}
	if n.Stats.TrunkFlows != 0 {
		t.Errorf("unexpected trunk flows: %d", n.Stats.TrunkFlows)
	}
}

func TestReset(t *testing.T) {
	n := smallSwitch(4)
	n.Transfer(0, 1, 1<<20, 0)
	n.Reset()
	if n.Stats != (Stats{}) {
		t.Errorf("stats not cleared: %+v", n.Stats)
	}
	start, _ := n.Transfer(0, 1, 1<<10, 0)
	if start != 0 {
		t.Errorf("port state not cleared: start = %v", start)
	}
}

func TestInvalidTransfersPanic(t *testing.T) {
	n := smallSwitch(4)
	for _, c := range []struct{ src, dst int }{{0, 0}, {-1, 1}, {0, 9}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("transfer %d->%d should panic", c.src, c.dst)
				}
			}()
			n.Transfer(c.src, c.dst, 1, 0)
		}()
	}
}

// TestTransferTrunkCrossingTiming pins down the Transfer-level trunk
// arithmetic: a flow with exactly one endpoint behind the stacking
// trunk serializes at trunk rate, while flows local to either switch
// run at full link rate.
func TestTransferTrunkCrossingTiming(t *testing.T) {
	cfg := Config{
		Ports:            8,
		LinkBandwidth:    100e6,
		Efficiency:       1,
		MsgLatency:       time.Millisecond,
		NonBlockingPorts: 4,
		TrunkBandwidth:   10e6,
	}
	const bytes = 1_000_000
	wantLocal := time.Millisecond + 10*time.Millisecond  // 1 MB at 100 MB/s
	wantTrunk := time.Millisecond + 100*time.Millisecond // 1 MB at 10 MB/s

	n := New(cfg)
	if _, end := n.Transfer(0, 1, bytes, 0); end != wantLocal {
		t.Errorf("primary-switch transfer took %v, want %v", end, wantLocal)
	}
	if n.Stats.TrunkFlows != 0 {
		t.Errorf("local transfer counted %d trunk flows", n.Stats.TrunkFlows)
	}

	n = New(cfg)
	if _, end := n.Transfer(0, 5, bytes, 0); end != wantTrunk {
		t.Errorf("trunk-crossing transfer took %v, want %v", end, wantTrunk)
	}
	if n.Stats.TrunkFlows != 1 {
		t.Errorf("crossing transfer counted %d trunk flows, want 1", n.Stats.TrunkFlows)
	}

	// Two ports behind the trunk talk locally on the stacked switch.
	n = New(cfg)
	if _, end := n.Transfer(5, 6, bytes, 0); end != wantLocal {
		t.Errorf("stacked-switch local transfer took %v, want %v", end, wantLocal)
	}
}

// TestTransferTrunkCrossingBusyPort checks that a crossing transfer
// arriving at a busy trunk-side port queues behind it and pays the
// interruption penalty on top of the trunk serialization time.
func TestTransferTrunkCrossingBusyPort(t *testing.T) {
	cfg := Config{
		Ports:            8,
		LinkBandwidth:    100e6,
		Efficiency:       1,
		MsgLatency:       time.Millisecond,
		InterruptPenalty: 5 * time.Millisecond,
		NonBlockingPorts: 4,
		TrunkBandwidth:   10e6,
	}
	n := New(cfg)
	const bytes = 1_000_000
	_, firstEnd := n.Transfer(0, 5, bytes, 0)
	start, end := n.Transfer(1, 5, bytes, 0)
	if start != firstEnd {
		t.Errorf("second transfer started %v, want queued until %v", start, firstEnd)
	}
	wantDur := time.Millisecond + 100*time.Millisecond + 5*time.Millisecond
	if got := end - start; got != wantDur {
		t.Errorf("interrupted crossing transfer took %v, want %v", got, wantDur)
	}
	if n.Stats.Interruptions != 1 {
		t.Errorf("interruptions = %d, want 1", n.Stats.Interruptions)
	}
}
