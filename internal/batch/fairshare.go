package batch

import (
	"math"
	"time"
)

// Fair-share accounting: each user accumulates node-seconds of granted
// machine time, exponentially decayed with a configurable half-life of
// virtual time, so recent consumption weighs more than last week's. The
// FairShare policy sorts the queue by this decayed usage ascending —
// light users jump heavy ones — with priority, submit time, and job ID
// breaking ties exactly as under the other disciplines.
//
// Sorting by live decayed values would pay two Exp2 calls per
// comparison, and charging any account would invalidate the whole
// order. Instead every account carries a sort key normalized to a
// common epoch: key = val·2^((at−epoch)/halfLife), which is each
// account's decayed value scaled by the same positive constant, so
// comparing keys is comparing usage — no per-comparison decay. Keys
// only change when usage is charged, and a charge marks the queue dirty
// only when the moved key actually passes (or lands on) another user's,
// so completions that cannot reorder the queue no longer force a
// million-job re-sort (TestFairShareKeyOrder pins key-vs-live-order
// agreement; the determinism suite pins the resulting schedules).

// usage is one user's decayed account: val node-seconds as of time at,
// and the epoch-normalized sort key.
type usage struct {
	val float64
	at  time.Duration
	key float64 // val · 2^((at − s.fsEpoch) / halfLife)
}

// halfLife returns the configured usage decay half-life.
func (s *Scheduler) halfLife() time.Duration {
	if s.cfg.FairShareHalfLife > 0 {
		return s.cfg.FairShareHalfLife
	}
	return 30 * time.Minute
}

// usageOf returns user u's decayed node-seconds at the current clock.
// Relative order between users is invariant under pure clock advance
// (every account decays by the same rate), so the queue order only
// truly changes when usage is charged. The queue comparator reads the
// precomputed keys (Job.acct.key) instead; this live value is kept for
// reports, metrics, and the key-order cross-check test.
func (s *Scheduler) usageOf(u string) float64 {
	a := s.usage[u]
	if a == nil {
		return 0
	}
	return a.val * math.Exp2(-float64(s.now-a.at)/float64(s.halfLife()))
}

// account returns user u's usage account, creating the zero account on
// first sight. Submit resolves it once per job under FairShare (Job.acct),
// so the queue comparator reads keys straight off the two jobs.
func (s *Scheduler) account(u string) *usage {
	a := s.usage[u]
	if a == nil {
		a = &usage{}
		s.usage[u] = a
	}
	return a
}

// fsRenormEpochs bounds how far the clock may drift from the key epoch
// before keys are rescaled: past ~64 half-lives the 2^x normalization
// factor risks overflow, so every key is multiplied by the same
// 2^(-drift/halfLife) — a positive constant, order-preserving — and the
// epoch moves to now.
const fsRenormEpochs = 64

// chargeUsage adds nodeTime (node-duration product) to user u's decayed
// account, refreshes its sort key, and invalidates the fair-share queue
// order — but only when the key's move can actually reorder users: a
// charge that leaves every other key outside the moved interval cannot
// change any comparison, so the cached sort stays valid.
func (s *Scheduler) chargeUsage(u string, nodeTime time.Duration) {
	if nodeTime <= 0 {
		return
	}
	a := s.account(u)
	hl := float64(s.halfLife())
	a.val = a.val*math.Exp2(-float64(s.now-a.at)/hl) + nodeTime.Seconds()
	a.at = s.now
	if s.met != nil {
		s.met.usageGauge(u).Set(a.val)
	}
	if s.cfg.Policy != FairShare {
		return
	}
	if drift := s.now - s.fsEpoch; drift > fsRenormEpochs*s.halfLife() {
		scale := math.Exp2(-float64(drift) / hl)
		//batchlint:allow determinism -- uniform rescale of every account; commutative, no iteration order escapes
		for _, other := range s.usage {
			other.key *= scale
		}
		s.fsEpoch = s.now
	}
	oldKey := a.key
	a.key = a.val * math.Exp2(float64(s.now-s.fsEpoch)/hl)
	if s.fsOrderChanged(a, oldKey) {
		s.pending.dirty = true
	}
}

// fsOrderChanged reports whether moving one account's key from oldKey
// to its current value can change any pairwise comparison: true when
// some other user's key lies in the closed moved interval (passing a
// key flips an order; landing exactly on one shifts the comparison to
// the tie-break legs). A fresh account (oldKey 0) always dirties — every
// user never charged compares as 0, with or without an account yet.
func (s *Scheduler) fsOrderChanged(a *usage, oldKey float64) bool {
	newKey := a.key
	if oldKey == newKey {
		return false
	}
	if oldKey == 0 {
		return true
	}
	lo, hi := oldKey, newKey
	if lo > hi {
		lo, hi = hi, lo
	}
	//batchlint:allow determinism -- any-order existence scan folding to one bool; order cannot change the result
	for _, other := range s.usage {
		if other == a {
			continue
		}
		if other.key >= lo && other.key <= hi {
			return true
		}
	}
	return false
}
