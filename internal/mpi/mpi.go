// Package mpi is a message-passing runtime in the style of the MPI subset
// the paper's parallel LBM uses: point-to-point Send/Recv with tags,
// pairwise SendRecv exchange, Barrier, and small collectives. Ranks are
// goroutines inside one process; channels replace the Gigabit Ethernet
// switch for the functional simulation, while byte/message accounting is
// recorded so the network model (package netsim / perfmodel) can attach
// costs to the same traffic.
//
// Semantics: Send copies the payload and is asynchronous up to a bounded
// buffer (like MPI's eager protocol for small messages); SendOwned hands
// the payload over instead, so that a payload always has exactly one
// owner: the sender until the call, the receiver from Recv on. Recv
// matches by (source, tag) and blocks. A watchdog fails a Send or Recv
// blocked longer than a configurable timeout so that an incorrect
// communication schedule deadlocks loudly in tests instead of hanging
// forever.
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// AnyTag matches any message tag in Recv.
const AnyTag = -1

// message is one in-flight point-to-point payload.
type message struct {
	tag  int
	data []float32
}

// RankStats counts traffic originated by one rank.
type RankStats struct {
	MessagesSent int64
	FloatsSent   int64 // payload volume, 4 bytes each
}

// World owns the mailboxes of a fixed-size group of ranks.
type World struct {
	size    int
	queues  [][]chan message // queues[dst][src]
	barrier *cyclicBarrier
	stats   []RankStats
	timeout time.Duration
}

// Option configures a World.
type Option func(*World)

// WithTimeout sets the Recv watchdog timeout (default 30s).
func WithTimeout(d time.Duration) Option {
	return func(w *World) { w.timeout = d }
}

// NewWorld creates a world of size ranks.
func NewWorld(size int, opts ...Option) *World {
	if size <= 0 {
		panic(fmt.Sprintf("mpi: invalid world size %d", size))
	}
	w := &World{
		size:    size,
		queues:  make([][]chan message, size),
		barrier: newCyclicBarrier(size),
		stats:   make([]RankStats, size),
		timeout: 30 * time.Second,
	}
	for dst := range w.queues {
		w.queues[dst] = make([]chan message, size)
		for src := range w.queues[dst] {
			// Eager buffering: pairwise exchanges (SendRecv) must not
			// deadlock, and the LBM schedule keeps at most a few
			// messages outstanding per pair.
			w.queues[dst][src] = make(chan message, 16)
		}
	}
	for _, opt := range opts {
		opt(w)
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Stats returns a snapshot of per-rank traffic counters.
func (w *World) Stats() []RankStats {
	out := make([]RankStats, w.size)
	for i := range out {
		out[i] = RankStats{
			MessagesSent: atomic.LoadInt64(&w.stats[i].MessagesSent),
			FloatsSent:   atomic.LoadInt64(&w.stats[i].FloatsSent),
		}
	}
	return out
}

// Run executes body once per rank, each on its own goroutine, and blocks
// until all ranks return. The first panic, if any, is re-raised on the
// caller's goroutine after all ranks have stopped or the panic is
// propagated (panics in a rank otherwise crash the process, which is what
// MPI programs do too — but re-raising centrally makes tests cleaner).
func (w *World) Run(body func(c *Comm)) {
	var wg sync.WaitGroup
	panics := make(chan interface{}, w.size)
	wg.Add(w.size)
	for r := 0; r < w.size; r++ {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics <- fmt.Sprintf("rank %d: %v", rank, p)
					// Unblock peers waiting on this rank.
					w.barrier.abort()
				}
			}()
			watchdog := time.NewTimer(w.timeout)
			watchdog.Stop()
			body(&Comm{world: w, rank: rank, watchdog: watchdog})
		}(r)
	}
	wg.Wait()
	select {
	case p := <-panics:
		panic(p)
	default:
	}
}

// Comm is one rank's handle to the world.
type Comm struct {
	world *World
	rank  int
	// watchdog runs only while this rank is blocked in a Send or Recv. It
	// is made with the Comm, not on first use, so that what a rank
	// allocates does not depend on whether it ever had to wait.
	watchdog *time.Timer
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.world.size }

// Send delivers a copy of data to rank dst with the given tag. It blocks
// only if the destination's mailbox for this source is full.
func (c *Comm) Send(dst, tag int, data []float32) {
	buf := make([]float32, len(data))
	copy(buf, data)
	c.SendOwned(dst, tag, buf)
}

// SendOwned is Send without the copy: data itself is delivered, and
// belongs to the receiver from this call on. The caller must neither
// read nor write it afterwards.
func (c *Comm) SendOwned(dst, tag int, data []float32) {
	if dst < 0 || dst >= c.world.size {
		panic(fmt.Sprintf("mpi: send to invalid rank %d (size %d)", dst, c.world.size))
	}
	if dst == c.rank {
		panic("mpi: send to self is not supported; use local state")
	}
	atomic.AddInt64(&c.world.stats[c.rank].MessagesSent, 1)
	atomic.AddInt64(&c.world.stats[c.rank].FloatsSent, int64(len(data)))
	mailbox, m := c.world.queues[dst][c.rank], message{tag: tag, data: data}
	select {
	case mailbox <- m:
		return
	default:
	}
	c.watchdog.Reset(c.world.timeout)
	select {
	case mailbox <- m:
		c.watchdog.Stop()
	case <-c.watchdog.C:
		panic(fmt.Sprintf("mpi: rank %d send to %d tag %d timed out (mailbox full — deadlock?)",
			c.rank, dst, tag))
	}
}

// Recv blocks until a message from rank src with the given tag (or any
// tag if tag == AnyTag) arrives, and returns its payload, which the
// caller owns. Messages from the same source are matched in arrival
// order; receiving a mismatched tag is an error because the deterministic
// schedules in this codebase never reorder tags within a pair.
func (c *Comm) Recv(src, tag int) []float32 {
	if src < 0 || src >= c.world.size {
		panic(fmt.Sprintf("mpi: recv from invalid rank %d (size %d)", src, c.world.size))
	}
	mailbox := c.world.queues[c.rank][src]
	var m message
	select {
	case m = <-mailbox:
	default:
		c.watchdog.Reset(c.world.timeout)
		select {
		case m = <-mailbox:
			c.watchdog.Stop()
		case <-c.watchdog.C:
			panic(fmt.Sprintf("mpi: rank %d recv from %d tag %d timed out (deadlock?)",
				c.rank, src, tag))
		}
	}
	if tag != AnyTag && m.tag != tag {
		panic(fmt.Sprintf("mpi: rank %d expected tag %d from %d, got %d",
			c.rank, tag, src, m.tag))
	}
	return m.data
}

// SendRecv exchanges payloads with a peer: sends sendData with tag and
// receives the peer's payload with the same tag. This is the primitive of
// the paper's pairwise communication schedule (Figure 7), where in each
// scheduled step certain pairs of nodes exchange data.
func (c *Comm) SendRecv(peer, tag int, sendData []float32) []float32 {
	c.Send(peer, tag, sendData)
	return c.Recv(peer, tag)
}

// Barrier blocks until every rank of the world has entered it; it models
// the paper's MPI_Barrier-based schedule synchronization (used below 16
// nodes).
func (c *Comm) Barrier() {
	c.world.barrier.await()
}

// Bcast broadcasts data from root: root's data is returned on every rank.
func (c *Comm) Bcast(root int, data []float32) []float32 {
	const tag = -1000 // internal tag range
	if c.rank == root {
		for r := 0; r < c.world.size; r++ {
			if r != root {
				c.Send(r, tag, data)
			}
		}
		out := make([]float32, len(data))
		copy(out, data)
		return out
	}
	return c.Recv(root, tag)
}

// Gather collects each rank's payload at root; root receives a slice of
// per-rank payloads ordered by rank, others receive nil.
func (c *Comm) Gather(root int, data []float32) [][]float32 {
	const tag = -1001
	if c.rank == root {
		out := make([][]float32, c.world.size)
		out[root] = append([]float32(nil), data...)
		for r := 0; r < c.world.size; r++ {
			if r != root {
				out[r] = c.Recv(r, tag)
			}
		}
		return out
	}
	c.Send(root, tag, data)
	return nil
}

// ReduceOp is a binary, associative, commutative reduction operator.
type ReduceOp func(a, b float32) float32

// Sum is the addition reduce operator.
func Sum(a, b float32) float32 { return a + b }

// Max is the maximum reduce operator.
func Max(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}

// Min is the minimum reduce operator.
func Min(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

// Allreduce reduces data elementwise across all ranks and returns the
// reduced vector on every rank. Reduction happens in rank order at rank 0
// so the result is deterministic regardless of goroutine scheduling.
func (c *Comm) Allreduce(data []float32, op ReduceOp) []float32 {
	parts := c.Gather(0, data)
	if c.rank == 0 {
		acc := make([]float32, len(data))
		copy(acc, parts[0])
		for r := 1; r < c.world.size; r++ {
			if len(parts[r]) != len(acc) {
				panic(fmt.Sprintf("mpi: allreduce length mismatch: rank %d sent %d, want %d",
					r, len(parts[r]), len(acc)))
			}
			for i, v := range parts[r] {
				acc[i] = op(acc[i], v)
			}
		}
		return c.Bcast(0, acc)
	}
	return c.Bcast(0, nil)
}

// cyclicBarrier is a reusable all-rank barrier.
type cyclicBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	size    int
	count   int
	round   int
	aborted bool
}

func newCyclicBarrier(size int) *cyclicBarrier {
	b := &cyclicBarrier{size: size}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *cyclicBarrier) await() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.aborted {
		panic("mpi: barrier aborted (another rank panicked)")
	}
	round := b.round
	b.count++
	if b.count == b.size {
		b.count = 0
		b.round++
		b.cond.Broadcast()
		return
	}
	for b.round == round && !b.aborted {
		b.cond.Wait()
	}
	if b.aborted {
		panic("mpi: barrier aborted (another rank panicked)")
	}
}

// abort releases all waiters with a panic; called when a rank dies so the
// rest do not hang.
func (b *cyclicBarrier) abort() {
	b.mu.Lock()
	b.aborted = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
