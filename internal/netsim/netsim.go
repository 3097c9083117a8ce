// Package netsim is a virtual-clock model of the cluster interconnect: a
// Gigabit Ethernet switch with one full-duplex port per node. It
// reproduces the two empirical observations of Section 4.3 of the paper:
//
//  1. "During the time when a node is sending data to another node, if a
//     third node tries to send data to either of those nodes, the
//     interruption will break the smooth data transfer and may
//     dramatically reduce the performance" — modeled as an interruption
//     penalty added whenever a transfer is requested at a port that is
//     already busy.
//
//  2. "Assuming the total communication data size is the same, a
//     simulation in which each node transfers data to more neighbors has
//     a considerably larger communication time" — emergent from the fixed
//     per-message latency (MPI software stack plus switch forwarding).
//
// The Stony Brook cluster had 35 nodes; Gigabit switches of the era were
// non-blocking only up to ~24 ports, with larger configurations stacked
// through a shared trunk. The model therefore treats ports beyond
// NonBlockingPorts as sitting behind a shared trunk whose bandwidth is
// divided among concurrent trunk flows. This is the mechanism that
// produces the network-time knee above 24 nodes seen in Table 1/Figure 8.
//
// All times are virtual (time.Duration); nothing sleeps.
package netsim

import (
	"fmt"
	"time"
)

// Config describes the interconnect.
type Config struct {
	// Ports is the number of attached nodes.
	Ports int
	// LinkBandwidth is the per-port rate in bytes/second
	// (1 Gigabit = 125e6).
	LinkBandwidth float64
	// Efficiency derates the peak link rate (Ethernet/IP/TCP framing and
	// the MPI progress engine); 0 < Efficiency <= 1.
	Efficiency float64
	// MsgLatency is the fixed cost per message: MPI call overhead,
	// kernel crossing, switch store-and-forward.
	MsgLatency time.Duration
	// InterruptPenalty is the extra cost paid by a transfer that finds
	// one of its ports busy (the paper's third-node interruption).
	InterruptPenalty time.Duration
	// NonBlockingPorts is the number of ports on the primary,
	// non-blocking switch. Ports at index >= NonBlockingPorts reach the
	// fabric through a shared trunk. Zero means all ports non-blocking.
	NonBlockingPorts int
	// TrunkBandwidth is the total bandwidth of the stacking trunk shared
	// by all flows involving ports >= NonBlockingPorts.
	TrunkBandwidth float64
}

// GigabitSwitch returns the paper's interconnect: 1 Gbit/s per port,
// non-blocking through 24 ports, stacked beyond. The trunk's effective
// throughput is calibrated to the Table 1 knee at 28+ nodes: under the
// LBM's bursty synchronized schedule the stacking segment delivered far
// below wire speed (flow-control backpressure), modeled as a 14 MB/s
// effective rate shared per direction by concurrent crossing flows.
func GigabitSwitch(ports int) Config {
	return Config{
		Ports:            ports,
		LinkBandwidth:    125e6,
		Efficiency:       0.85,
		MsgLatency:       120 * time.Microsecond,
		InterruptPenalty: 2 * time.Millisecond,
		NonBlockingPorts: 24,
		TrunkBandwidth:   14e6,
	}
}

// efficiency returns the link derating; a value outside (0, 1] means none.
func (c Config) efficiency() float64 {
	if c.Efficiency <= 0 || c.Efficiency > 1 {
		return 1
	}
	return c.Efficiency
}

// wireTime returns the latency plus serialization time of one message of
// the given size at the given rate.
func (c Config) wireTime(bytes int64, rate float64) time.Duration {
	return c.MsgLatency + time.Duration(float64(bytes)/rate*float64(time.Second))
}

// ExchangeTime returns the duration of one pairwise exchange of a
// schedule step in which `crossing` exchanges traverse the stacking
// trunk, this one among them; crossing == 0 is an exchange that stays on
// one switch. The trunk is full duplex, so the crossing exchanges divide
// its per-direction rate evenly, and an exchange runs at its share or at
// the derated link rate, whichever is lower. A step whose pairs start
// together and carry equal messages lasts ExchangeTime(bytes, its
// crossing count).
func (c Config) ExchangeTime(bytes int64, crossing int) time.Duration {
	eff := c.efficiency()
	rate := c.LinkBandwidth * eff
	if crossing > 0 && c.TrunkBandwidth > 0 {
		if share := c.TrunkBandwidth * eff / float64(crossing); share < rate {
			rate = share
		}
	}
	return c.wireTime(bytes, rate)
}

// Stats aggregates traffic accounting.
type Stats struct {
	Transfers     int64
	Bytes         int64
	Interruptions int64
	TrunkFlows    int64
}

// Network is the switch state: per-port busy horizons on a virtual clock.
type Network struct {
	cfg       Config
	busyUntil []time.Duration
	// Stats accumulates counters across transfers; read between rounds.
	Stats Stats
}

// New creates a network from cfg.
func New(cfg Config) *Network {
	if cfg.Ports <= 0 {
		panic(fmt.Sprintf("netsim: invalid port count %d", cfg.Ports))
	}
	cfg.Efficiency = cfg.efficiency()
	return &Network{cfg: cfg, busyUntil: make([]time.Duration, cfg.Ports)}
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Reset clears port state and statistics.
func (n *Network) Reset() {
	for i := range n.busyUntil {
		n.busyUntil[i] = 0
	}
	n.Stats = Stats{}
}

// crossesTrunk reports whether a flow between ports a and b traverses the
// stacking trunk: exactly one endpoint sits behind it (two stacked-switch
// ports talk locally on the second switch).
func (n *Network) crossesTrunk(a, b int) bool {
	if n.cfg.NonBlockingPorts <= 0 || n.cfg.NonBlockingPorts >= n.cfg.Ports {
		return false
	}
	return (a >= n.cfg.NonBlockingPorts) != (b >= n.cfg.NonBlockingPorts)
}

// Transfer models one unidirectional message of `bytes` from port src to
// port dst, requested at virtual time `at`. It returns the interval
// [start, end) during which both ports are occupied. If either port is
// busy when the request arrives, the transfer is an interruption: it
// waits for the port and pays the interruption penalty.
func (n *Network) Transfer(src, dst int, bytes int64, at time.Duration) (start, end time.Duration) {
	if src < 0 || src >= n.cfg.Ports || dst < 0 || dst >= n.cfg.Ports || src == dst {
		panic(fmt.Sprintf("netsim: invalid transfer %d -> %d (ports %d)", src, dst, n.cfg.Ports))
	}
	start = at
	interrupted := false
	if n.busyUntil[src] > start {
		start = n.busyUntil[src]
		interrupted = true
	}
	if n.busyUntil[dst] > start {
		start = n.busyUntil[dst]
		interrupted = true
	}
	dur := n.cfg.ExchangeTime(bytes, 0)
	if n.crossesTrunk(src, dst) {
		n.Stats.TrunkFlows++
		if n.cfg.TrunkBandwidth > 0 && n.cfg.TrunkBandwidth < n.cfg.LinkBandwidth {
			dur = n.cfg.wireTime(bytes, n.cfg.TrunkBandwidth*n.cfg.Efficiency)
		}
	}
	if interrupted {
		dur += n.cfg.InterruptPenalty
		n.Stats.Interruptions++
	}
	end = start + dur
	n.busyUntil[src] = end
	n.busyUntil[dst] = end
	n.Stats.Transfers++
	n.Stats.Bytes += bytes
	return start, end
}

// Exchange is one bidirectional pairwise exchange of a schedule step: both
// nodes send Bytes to each other simultaneously (full duplex).
type Exchange struct {
	A, B  int
	Bytes int64
}

// StepTimes computes the per-node completion times of one schedule step in
// which the given pairwise exchanges run concurrently, each pair starting
// when both of its members are ready (their start times). Pairs are
// required to be disjoint — that is the defining property of the paper's
// schedule — and the function panics otherwise.
//
// Trunk sharing: all exchanges crossing the trunk divide TrunkBandwidth
// evenly (Config.ExchangeTime), so a step's trunk exchanges take (number
// of trunk flows) times longer than a lone trunk exchange. This
// deterministic fluid approximation is what creates the contention knee
// for large clusters.
func (n *Network) StepTimes(pairs []Exchange, ready []time.Duration) []time.Duration {
	seen := make([]bool, n.cfg.Ports)
	crossing := 0
	for _, p := range pairs {
		if p.A == p.B || p.A < 0 || p.B < 0 || p.A >= n.cfg.Ports || p.B >= n.cfg.Ports {
			panic(fmt.Sprintf("netsim: invalid exchange %+v", p))
		}
		if seen[p.A] || seen[p.B] {
			panic(fmt.Sprintf("netsim: schedule step is not pairwise disjoint at %+v", p))
		}
		seen[p.A], seen[p.B] = true, true
		if n.crossesTrunk(p.A, p.B) {
			crossing++
		}
	}
	done := make([]time.Duration, len(ready))
	copy(done, ready)
	for _, p := range pairs {
		start := ready[p.A]
		if ready[p.B] > start {
			start = ready[p.B]
		}
		shared := 0
		if n.crossesTrunk(p.A, p.B) {
			shared = crossing
			if n.cfg.TrunkBandwidth > 0 {
				n.Stats.TrunkFlows += 2
			}
		}
		end := start + n.cfg.ExchangeTime(p.Bytes, shared)
		done[p.A], done[p.B] = end, end
		n.Stats.Transfers += 2
		n.Stats.Bytes += 2 * p.Bytes
	}
	return done
}
