// Package lockheld is the batchlint Engine-locking fixture: exported
// Engine methods must take e.mu before the first e.s touch; unexported
// helpers are the documented callers-hold-e.mu tier.
package lockheld

import "sync"

type core struct{ queue []int }

func (c *core) push(v int) { c.queue = append(c.queue, v) }

type Engine struct {
	mu sync.Mutex
	s  *core
}

func (e *Engine) Ingest(v int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.s.push(v)
}

func (e *Engine) Peek() int {
	if len(e.s.queue) == 0 { // want `exported Engine method Peek touches scheduler state`
		return 0
	}
	return e.s.queue[0]
}

func (e *Engine) Len() int {
	e.mu.Lock()
	n := len(e.s.queue)
	e.mu.Unlock()
	return n
}

// Installing something on the scheduler is a touch like any read: the
// shape of Engine.RetireTo.
func (e *Engine) Install(q []int) {
	e.s.queue = q // want `exported Engine method Install touches scheduler state`
}

func (e *Engine) InstallLocked(q []int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.s.queue = q
}

func (e *Engine) pump(v int) {
	e.s.push(v) // unexported: callers hold e.mu
}

func (e *Engine) Reset() {} // no scheduler state touched

func (e *Engine) Snapshot() []int {
	//batchlint:allow lockheld -- fixture: audited lock-free read
	return e.s.queue
}
