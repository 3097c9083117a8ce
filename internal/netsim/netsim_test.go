package netsim

import (
	"fmt"
	"testing"
	"time"
)

func smallSwitch(ports int) *Network {
	cfg := GigabitSwitch(ports)
	return New(cfg)
}

func TestMoreNeighborsCostMore(t *testing.T) {
	// The paper's observation (2): the same total volume split across
	// more neighbors takes longer, because of per-message latency.
	const total = 1 << 20
	cfg := GigabitSwitch(8)
	one := cfg.ExchangeTime(total, 0)
	four := 4 * cfg.ExchangeTime(total/4, 0)
	if four <= one {
		t.Errorf("4 messages (%v) should cost more than 1 message (%v)", four, one)
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

// mustPanic fails t unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s should panic", what)
		}
	}()
	f()
}

// TestTransferBasics pins one exchange's arithmetic: the message latency
// plus the bytes at the derated link rate, with an efficiency outside
// (0, 1] meaning none.
func TestTransferBasics(t *testing.T) {
	cfg := Config{Ports: 2, LinkBandwidth: 200e6, Efficiency: 0.5, MsgLatency: time.Millisecond}
	if got, want := cfg.ExchangeTime(1_000_000, 0), 11*time.Millisecond; got != want {
		t.Errorf("1 MB at half of 200 MB/s took %v, want %v", got, want)
	}
	if got := cfg.ExchangeTime(0, 0); got != time.Millisecond {
		t.Errorf("an empty message took %v, want the latency alone", got)
	}
	for _, eff := range []float64{0, -1, 1.5} {
		cfg.Efficiency = eff
		if got, want := cfg.ExchangeTime(1_000_000, 0), 6*time.Millisecond; got != want {
			t.Errorf("efficiency %v: 1 MB at 200 MB/s took %v, want %v", eff, got, want)
		}
	}
	// StepTimes ends both members of a lone pair at that time.
	cfg.Efficiency = 0.5
	done := New(cfg).StepTimes([]Exchange{{0, 1, 1_000_000}}, []time.Duration{0, 0})
	if done[0] != 11*time.Millisecond || done[1] != 11*time.Millisecond {
		t.Errorf("lone pair ended at %v, want both at 11ms", done)
	}
}

// TestExchangeTimeTrunkShare: a crossing exchange runs at its share of
// the trunk only when that share is below the derated link rate, and a
// zero TrunkBandwidth means no trunk limit at all.
func TestExchangeTimeTrunkShare(t *testing.T) {
	cfg := Config{Ports: 8, LinkBandwidth: 100e6, Efficiency: 1, MsgLatency: time.Millisecond, TrunkBandwidth: 1e9}
	local := cfg.ExchangeTime(1_000_000, 0)
	for _, crossing := range []int{1, 2, 10} {
		if got := cfg.ExchangeTime(1_000_000, crossing); got != local {
			t.Errorf("%d crossing on a 1 GB/s trunk took %v, want the link's %v", crossing, got, local)
		}
	}
	if got, want := cfg.ExchangeTime(1_000_000, 100), time.Millisecond+100*time.Millisecond; got != want {
		t.Errorf("100 crossing on a 1 GB/s trunk took %v, want %v", got, want)
	}
	cfg.TrunkBandwidth = 0
	if got := cfg.ExchangeTime(1_000_000, 100); got != local {
		t.Errorf("no trunk limit: 100 crossing took %v, want %v", got, local)
	}
}

// TestTrunkBeginsAtNonBlockingPorts: the paper's switch is non-blocking
// through port 23; the first pair to reach port 24 from the primary
// switch is the first to cross the trunk.
func TestTrunkBeginsAtNonBlockingPorts(t *testing.T) {
	const bytes = 1 << 20
	local := GigabitSwitch(25).ExchangeTime(bytes, 0)
	for _, c := range []struct {
		ports, a, b int
		crosses     bool
	}{
		{24, 0, 23, false},
		{25, 0, 23, false},
		{25, 23, 24, true},
		{25, 0, 24, true},
		{26, 24, 25, false},
	} {
		done := New(GigabitSwitch(c.ports)).StepTimes([]Exchange{{c.a, c.b, bytes}}, make([]time.Duration, c.ports))
		if crossed := done[c.a] != local; crossed != c.crosses {
			t.Errorf("%d ports, pair (%d,%d): crossed = %v (ended at %v, local %v), want %v",
				c.ports, c.a, c.b, crossed, done[c.a], local, c.crosses)
		}
	}
	// A NonBlockingPorts of zero, or at or above the port count, leaves
	// every pair on one switch.
	for _, nb := range []int{0, 4, 9} {
		cfg := GigabitSwitch(4)
		cfg.NonBlockingPorts = nb
		if done := New(cfg).StepTimes([]Exchange{{0, 3, bytes}}, make([]time.Duration, 4)); done[0] != local {
			t.Errorf("NonBlockingPorts %d on 4 ports: ended at %v, want local %v", nb, done[0], local)
		}
	}
}

// TestStepTimesRejectsOverlappingPairs: a step in which one port is in
// two pairs is no schedule step.
func TestStepTimesRejectsOverlappingPairs(t *testing.T) {
	n := smallSwitch(4)
	for _, pairs := range [][]Exchange{
		{{0, 1, 10}, {1, 2, 10}},
		{{0, 1, 10}, {2, 0, 10}},
		{{0, 1, 10}, {0, 1, 10}},
	} {
		mustPanic(t, fmt.Sprintf("step %v", pairs), func() { n.StepTimes(pairs, make([]time.Duration, 4)) })
	}
}

// TestInvalidTransfersPanic: an exchange of a port with itself or with a
// port the switch lacks panics, and so does a switch without ports.
func TestInvalidTransfersPanic(t *testing.T) {
	n := smallSwitch(4)
	for _, p := range []Exchange{{0, 0, 10}, {-1, 1, 10}, {1, -1, 10}, {0, 4, 10}, {9, 0, 10}} {
		mustPanic(t, fmt.Sprintf("exchange %v", p), func() { n.StepTimes([]Exchange{p}, make([]time.Duration, 4)) })
	}
	for _, ports := range []int{0, -1} {
		mustPanic(t, fmt.Sprintf("New with %d ports", ports), func() { New(GigabitSwitch(ports)) })
	}
}

// TestThirdNodeInterruption: the paper's observation (1), a third node
// sending to either member of an exchange in progress, is what the
// schedule rules out. StepTimes rejects such a step whichever way the
// third flow runs; put in the next step instead, it starts when the
// pair is done, and the pair's exchange takes a lone exchange's time.
func TestThirdNodeInterruption(t *testing.T) {
	cfg := GigabitSwitch(4)
	n := New(cfg)
	pair := Exchange{0, 1, 1 << 20}
	for _, third := range []Exchange{{2, 0, 1 << 10}, {2, 1, 1 << 10}, {1, 2, 1 << 10}} {
		mustPanic(t, fmt.Sprintf("third flow %v during %v", third, pair), func() {
			n.StepTimes([]Exchange{pair, third}, make([]time.Duration, 4))
		})
	}
	lone := cfg.ExchangeTime(pair.Bytes, 0)
	ready := n.StepTimes([]Exchange{pair}, make([]time.Duration, 4))
	if ready[0] != lone || ready[1] != lone {
		t.Fatalf("pair ended at %v and %v, want %v", ready[0], ready[1], lone)
	}
	done := n.StepTimes([]Exchange{{0, 2, 1 << 10}}, ready)
	if want := lone + cfg.ExchangeTime(1<<10, 0); done[0] != want || done[2] != want {
		t.Errorf("next-step exchange of nodes 0 and 2 ended at %v and %v, want %v", done[0], done[2], want)
	}
	if done[1] != lone || done[3] != 0 {
		t.Errorf("nodes outside the next step moved: %v %v", done[1], done[3])
	}
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
}

// TestTransferTrunkCrossingTiming pins down the trunk arithmetic of a
// step: a pair with exactly one endpoint behind the stacking trunk
// serializes at the trunk rate divided among the step's crossing pairs,
// while pairs local to either switch run at full link rate.
func TestTransferTrunkCrossingTiming(t *testing.T) {
	n := New(Config{
		Ports:            8,
		LinkBandwidth:    100e6,
		Efficiency:       1,
		MsgLatency:       time.Millisecond,
		NonBlockingPorts: 4,
		TrunkBandwidth:   10e6,
	})
	const bytes = 1_000_000
	wantLocal := time.Millisecond + 10*time.Millisecond  // 1 MB at 100 MB/s
	wantTrunk := time.Millisecond + 100*time.Millisecond // 1 MB at 10 MB/s

	// The primary-switch pair, one crossing pair, and two ports behind
	// the trunk that talk locally on the stacked switch.
	done := n.StepTimes([]Exchange{{0, 1, bytes}, {2, 5, bytes}, {6, 7, bytes}}, make([]time.Duration, 8))
	for _, c := range []struct {
		port int
		want time.Duration
		what string
	}{
		{0, wantLocal, "primary-switch"}, {1, wantLocal, "primary-switch"},
		{2, wantTrunk, "trunk-crossing"}, {5, wantTrunk, "trunk-crossing"},
		{6, wantLocal, "stacked-switch local"}, {7, wantLocal, "stacked-switch local"},
	} {
		if done[c.port] != c.want {
			t.Errorf("%s exchange ended port %d at %v, want %v", c.what, c.port, done[c.port], c.want)
		}
	}
	if done[3] != 0 || done[4] != 0 {
		t.Errorf("idle ports moved: %v %v", done[3], done[4])
	}

	// Two crossing pairs halve each one's share of the trunk.
	done = n.StepTimes([]Exchange{{0, 4, bytes}, {1, 5, bytes}}, make([]time.Duration, 8))
	if want := time.Millisecond + 200*time.Millisecond; done[0] != want || done[5] != want {
		t.Errorf("two crossing exchanges ended at %v and %v, want %v", done[0], done[5], want)
	}
}
