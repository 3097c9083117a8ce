package mpi

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestSendRecvBasic(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float32{1, 2, 3})
		} else {
			got := c.Recv(0, 7)
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				t.Errorf("recv = %v", got)
			}
		}
	})
}

func TestSendCopiesPayload(t *testing.T) {
	w := NewWorld(2)
	mutated := make(chan struct{})
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float32{42}
			c.Send(1, 0, buf)
			buf[0] = -1 // mutating after send must not affect delivery
			close(mutated)
		} else {
			<-mutated
			if got := c.Recv(0, 0); got[0] != 42 {
				t.Errorf("payload was not copied: %v", got)
			}
		}
	})
}

func TestRecvAnyTag(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 99, []float32{5})
		} else {
			if got := c.Recv(0, AnyTag); got[0] != 5 {
				t.Errorf("recv any = %v", got)
			}
		}
	})
}

func TestMessagesOrderedPerPair(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 10; i++ {
				c.Send(1, i, []float32{float32(i)})
			}
		} else {
			for i := 0; i < 10; i++ {
				if got := c.Recv(0, i); got[0] != float32(i) {
					t.Errorf("message %d out of order: %v", i, got)
				}
			}
		}
	})
}

func TestSendRecvExchange(t *testing.T) {
	// Pairwise exchange must not deadlock and must swap payloads.
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		c.Send(1-c.Rank(), 0, []float32{float32(c.Rank())})
		theirs := c.Recv(1-c.Rank(), 0)
		if theirs[0] != float32(1-c.Rank()) {
			t.Errorf("rank %d got %v", c.Rank(), theirs)
		}
	})
}

func TestBcast(t *testing.T) {
	w := NewWorld(5)
	w.Run(func(c *Comm) {
		var data []float32
		if c.Rank() == 2 {
			data = []float32{3.14, 2.71}
		}
		got := c.Bcast(2, data)
		if len(got) != 2 || got[0] != 3.14 {
			t.Errorf("rank %d bcast = %v", c.Rank(), got)
		}
	})
}

func TestGather(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		parts := c.Gather(0, []float32{float32(c.Rank() * 10)})
		if c.Rank() == 0 {
			for r, p := range parts {
				if p[0] != float32(r*10) {
					t.Errorf("gathered[%d] = %v", r, p)
				}
			}
		} else if parts != nil {
			t.Errorf("non-root got %v", parts)
		}
	})
}

func TestAllreduceSum(t *testing.T) {
	const n = 6
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		got := c.Allreduce([]float32{1, float32(c.Rank())}, Sum)
		if got[0] != n {
			t.Errorf("sum of ones = %v", got[0])
		}
		if got[1] != 15 { // 0+1+2+3+4+5
			t.Errorf("sum of ranks = %v", got[1])
		}
	})
}

func TestAllreduceMaxMin(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		mx := c.Allreduce([]float32{float32(c.Rank())}, Max)
		if mx[0] != 3 {
			t.Errorf("max = %v", mx[0])
		}
		mn := c.Allreduce([]float32{float32(c.Rank())}, func(a, b float32) float32 { return min(a, b) })
		if mn[0] != 0 {
			t.Errorf("min = %v", mn[0])
		}
	})
}

func TestStatsAccounting(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float32, 100))
			c.Send(1, 1, make([]float32, 50))
		} else {
			c.Recv(0, 0)
			c.Recv(0, 1)
		}
	})
	s := w.Stats()
	if s[0].MessagesSent != 2 || s[0].FloatsSent != 150 {
		t.Errorf("rank 0 stats = %+v", s[0])
	}
	if s[1].MessagesSent != 0 {
		t.Errorf("rank 1 stats = %+v", s[1])
	}
}

func TestRecvTimeoutDetectsDeadlock(t *testing.T) {
	w := NewWorld(2, WithTimeout(50*time.Millisecond))
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected deadlock panic")
		}
		if !strings.Contains(p.(string), "timed out") {
			t.Fatalf("unexpected panic: %v", p)
		}
	}()
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Recv(1, 0) // rank 1 never sends
		}
	})
}

func TestInvalidRankPanics(t *testing.T) {
	w := NewWorld(2, WithTimeout(time.Second))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid destination")
		}
	}()
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(5, 0, nil)
		}
	})
}

func TestSendToSelfPanics(t *testing.T) {
	w := NewWorld(1, WithTimeout(time.Second))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for self-send")
		}
	}()
	w.Run(func(c *Comm) {
		c.Send(0, 0, nil)
	})
}

func TestManyRanksAllToAllNeighbors(t *testing.T) {
	// A ring exchange with 16 ranks: each sends to its right neighbor and
	// receives from its left neighbor; values must travel the ring.
	const n = 16
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		val := []float32{float32(c.Rank())}
		for step := 0; step < n; step++ {
			right := (c.Rank() + 1) % n
			left := (c.Rank() - 1 + n) % n
			c.Send(right, step, val)
			val = c.Recv(left, step)
		}
		// After n steps the value returns home.
		if val[0] != float32(c.Rank()) {
			t.Errorf("rank %d ring value = %v", c.Rank(), val[0])
		}
	})
}

func TestSendOwnedDeliversTheSameArray(t *testing.T) {
	// No copy on the way: the receiver gets the very slice the sender
	// gave up.
	buf := []float32{1, 2, 3}
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.SendOwned(1, 4, buf)
		} else if got := c.Recv(0, 4); len(got) != len(buf) || &got[0] != &buf[0] {
			t.Errorf("recv = %v at %p, want the sender's slice at %p", got, &got[0], &buf[0])
		}
	})
}

func TestBothSendsCountTheSame(t *testing.T) {
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(2, 0, make([]float32, 100))
			c.Send(2, 1, make([]float32, 50))
		case 1:
			c.SendOwned(2, 0, make([]float32, 100))
			c.SendOwned(2, 1, make([]float32, 50))
		default:
			for src := 0; src < 2; src++ {
				c.Recv(src, 0)
				c.Recv(src, 1)
			}
		}
	})
	s := w.Stats()
	if s[0] != s[1] || s[0].MessagesSent != 2 || s[0].FloatsSent != 150 {
		t.Errorf("Send counted %+v, SendOwned %+v, want 2 messages of 150 floats each", s[0], s[1])
	}
}

func TestSendTimeoutDetectsFullMailbox(t *testing.T) {
	// The watchdog is armed on the blocking path of a send too: a
	// receiver that never drains its mailbox fails the sender loudly.
	w := NewWorld(2, WithTimeout(50*time.Millisecond))
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected mailbox-full panic")
		}
		if !strings.Contains(p.(string), "timed out") {
			t.Fatalf("unexpected panic: %v", p)
		}
	}()
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 1000; i++ {
				c.SendOwned(1, i, nil)
			}
		}
	})
}

func TestWatchdogRearmsAfterAWait(t *testing.T) {
	// A wait that ended in time leaves nothing behind: the next blocked
	// call gets the full timeout again, however long the rank has waited
	// in all, and a call that does deadlock still fails.
	const waits = 10
	var received atomic.Int32
	w := NewWorld(2, WithTimeout(250*time.Millisecond))
	defer func() {
		if p := recover(); p == nil || !strings.Contains(p.(string), "timed out") {
			t.Fatalf("expected the deadlock panic, got %v", p)
		}
		if got := received.Load(); got != waits {
			t.Errorf("the watchdog fired after %d of %d waits that each ended in time", got, waits)
		}
	}()
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < waits; i++ {
				c.Recv(1, i) // blocks each time: rank 1 is the slower
				received.Add(1)
			}
			c.Recv(1, 99) // never sent
		} else {
			for i := 0; i < waits; i++ {
				time.Sleep(30 * time.Millisecond) // 300ms in all: beyond one timeout
				c.SendOwned(0, i, nil)
			}
		}
	})
}
