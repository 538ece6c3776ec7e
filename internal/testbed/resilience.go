package testbed

import (
	"fmt"

	"carat/internal/sim"
)

// AbortCause classifies why a submission aborted, for the retry/abandon
// accounting: deadlock victims (local wait-for-graph cycles, probe-detected
// global cycles, and the prevention protocols' restarts), participant-site
// crashes, and lock-wait/2PC-prepare timeouts.
type AbortCause int

const (
	// CauseDeadlock covers every concurrency-control restart.
	CauseDeadlock AbortCause = iota
	// CauseCrash covers aborts forced by a crashed participant site.
	CauseCrash
	// CauseTimeout covers lock-wait and 2PC prepare timeouts.
	CauseTimeout
	// CauseValidation covers OCC commit-time validation conflicts. Only
	// OCC runs produce it (and only OCC runs serialize it — see
	// Results.collect).
	CauseValidation

	numAbortCauses
)

// String names the cause.
func (c AbortCause) String() string {
	switch c {
	case CauseDeadlock:
		return "deadlock"
	case CauseCrash:
		return "crash"
	case CauseTimeout:
		return "timeout"
	case CauseValidation:
		return "validation"
	default:
		return fmt.Sprintf("AbortCause(%d)", int(c))
	}
}

// abortCauseOf maps a txnState doom cause to its AbortCause. A nil cause is
// a locally detected deadlock victim (the lock manager aborts it without
// going through killTxn).
func abortCauseOf(err error) AbortCause {
	switch err {
	case errSiteCrash, errPartitioned:
		// A partition is an availability fault like a crash: both retry and
		// abandonment accounting pool them under CauseCrash. The dedicated
		// PartitionAborts counter keeps the split visible.
		return CauseCrash
	case errLockTimeout, errPrepareTimeout:
		return CauseTimeout
	case errValidation:
		return CauseValidation
	default:
		return CauseDeadlock
	}
}

// RetryPolicy bounds how a user resubmits after an abort. The zero value is
// the historical CARAT behavior: retry forever, immediately (Section 3's
// restart-after-abort, which livelocks gracelessly under fault storms).
type RetryPolicy struct {
	// MaxAttempts caps the submissions of one user transaction; after the
	// cap the transaction is abandoned (counted, not committed) and the user
	// moves on. Zero retries forever.
	MaxAttempts int
	// BaseBackoffMS > 0 enables exponential backoff between resubmissions:
	// attempt k waits min(MaxBackoffMS, BaseBackoffMS·Multiplier^(k-1)),
	// jittered by ±JitterFrac. Zero disables backoff.
	BaseBackoffMS float64
	// MaxBackoffMS caps the backoff (default 32× BaseBackoffMS).
	MaxBackoffMS float64
	// Multiplier is the exponential growth factor (default 2).
	Multiplier float64
	// JitterFrac in [0,1] scales each backoff by a uniform factor in
	// [1-JitterFrac, 1+JitterFrac], drawn from a dedicated per-user RNG
	// stream so enabling it never perturbs the workload streams.
	JitterFrac float64
}

// AdmissionPolicy is the per-site overload gate: when engaged, at most
// MaxMPL transactions homed at a site execute concurrently; excess arrivals
// are shed (rejected and backed off) or delayed (queued FIFO).
type AdmissionPolicy struct {
	// MaxMPL > 0 caps the concurrently admitted submissions per home site.
	// Zero disables admission control.
	MaxMPL int
	// AbortRateThreshold engages the gate only while the site's abort rate
	// (aborts per second over the trailing WindowMS) is at or above this
	// value; zero keeps the gate always engaged.
	AbortRateThreshold float64
	// WindowMS is the trailing abort-rate window (default 1000).
	WindowMS float64
	// Shed rejects excess arrivals and re-tries them after ShedBackoffMS
	// instead of queueing them (default false: delay, FIFO).
	Shed bool
	// ShedBackoffMS is the wait before a shed arrival re-tries (default 100).
	ShedBackoffMS float64
}

// Resilience configures the testbed's failure-survival layer. The zero
// value is fully inert: the simulation is byte-identical to one configured
// without it.
type Resilience struct {
	// Retry bounds and paces resubmission after aborts.
	Retry RetryPolicy
	// Admission gates new arrivals per home site under overload.
	Admission AdmissionPolicy
	// ProbeRetryMS > 0 re-initiates global deadlock probes for every
	// transaction still blocked in a lock wait, with this period, so a lost
	// probe message delays detection instead of hiding the deadlock until
	// the coarse lock-wait timeout (or forever).
	ProbeRetryMS float64
}

// Active reports whether any resilience mechanism is configured.
func (r *Resilience) Active() bool {
	return r.Retry.MaxAttempts > 0 || r.Retry.BaseBackoffMS > 0 ||
		r.Admission.MaxMPL > 0 || r.ProbeRetryMS > 0
}

// validate checks the policies and fills defaults in place.
func (r *Resilience) validate() error {
	if r.Retry.MaxAttempts < 0 {
		return fmt.Errorf("testbed: resilience MaxAttempts must be non-negative")
	}
	if !finiteNonNeg(r.Retry.BaseBackoffMS) || !finiteNonNeg(r.Retry.MaxBackoffMS) {
		return fmt.Errorf("testbed: resilience backoff times must be finite and non-negative")
	}
	if !finiteNonNeg(r.Retry.JitterFrac) || r.Retry.JitterFrac > 1 {
		return fmt.Errorf("testbed: resilience JitterFrac %v out of [0,1]", r.Retry.JitterFrac)
	}
	if r.Retry.BaseBackoffMS > 0 {
		if r.Retry.Multiplier <= 0 {
			r.Retry.Multiplier = 2
		}
		if r.Retry.Multiplier < 1 {
			return fmt.Errorf("testbed: resilience Multiplier %v must be >= 1", r.Retry.Multiplier)
		}
		if r.Retry.MaxBackoffMS == 0 {
			r.Retry.MaxBackoffMS = 32 * r.Retry.BaseBackoffMS
		}
		if r.Retry.MaxBackoffMS < r.Retry.BaseBackoffMS {
			return fmt.Errorf("testbed: resilience MaxBackoffMS %v below BaseBackoffMS %v",
				r.Retry.MaxBackoffMS, r.Retry.BaseBackoffMS)
		}
	}
	if r.Admission.MaxMPL < 0 {
		return fmt.Errorf("testbed: resilience MaxMPL must be non-negative")
	}
	if !finiteNonNeg(r.Admission.AbortRateThreshold) {
		return fmt.Errorf("testbed: resilience AbortRateThreshold must be finite and non-negative")
	}
	// A zero or negative multiplier, window or shed backoff takes its
	// default below; only a non-finite one is an error.
	if !finite(r.Retry.Multiplier, r.Admission.WindowMS, r.Admission.ShedBackoffMS) {
		return fmt.Errorf("testbed: resilience Multiplier, WindowMS and ShedBackoffMS must be finite")
	}
	if r.Admission.MaxMPL > 0 {
		if r.Admission.WindowMS <= 0 {
			r.Admission.WindowMS = 1000
		}
		if r.Admission.ShedBackoffMS <= 0 {
			r.Admission.ShedBackoffMS = 100
		}
	}
	if !finiteNonNeg(r.ProbeRetryMS) {
		return fmt.Errorf("testbed: resilience ProbeRetryMS must be finite and non-negative")
	}
	return nil
}

// retryBackoff returns the backoff before resubmission number attempt+1,
// after attempt aborted submissions: exponential growth from the base,
// capped, with deterministic jitter from the user's dedicated stream.
func (u *user) retryBackoff(attempt int) float64 {
	pol := &u.sys.cfg.Resilience.Retry
	if pol.BaseBackoffMS <= 0 {
		return 0
	}
	b := pol.BaseBackoffMS
	for i := 1; i < attempt && b < pol.MaxBackoffMS; i++ {
		b *= pol.Multiplier
	}
	if b > pol.MaxBackoffMS {
		b = pol.MaxBackoffMS
	}
	if pol.JitterFrac > 0 {
		b *= 1 + pol.JitterFrac*(2*u.backoffRnd.Float64()-1)
	}
	return b
}

// admit blocks until the home site's admission gate passes this user's next
// submission, then takes a slot. No-op when admission control is off.
func (u *user) admit(p *sim.Proc, home *node) {
	pol := &u.sys.cfg.Resilience.Admission
	if pol.MaxMPL <= 0 {
		return
	}
	for home.admitted >= pol.MaxMPL && home.gateEngaged(p.Now()) {
		if pol.Shed {
			home.resil.ShedArrivals++
			u.sys.trace(-1, u.spec.Kind, home.id, EvShed, -1)
			p.Hold(pol.ShedBackoffMS)
			continue
		}
		ev := sim.NewEvent(u.sys.env)
		home.admitQ = append(home.admitQ, ev)
		home.resil.DelayedArrivals++
		t0 := p.Now()
		if err := ev.Wait(p); err != nil {
			// Never interrupted in practice (no transaction is registered
			// yet); bail without a slot so the accounting stays balanced.
			return
		}
		home.admitWait.Add(p.Now() - t0)
	}
	home.admitted++
	u.holdsSlot = true
	if home.admitted > home.resil.PeakMPL {
		home.resil.PeakMPL = home.admitted
	}
}

// releaseAdmission returns this user's admission slot and hands it to the
// first queued arrival, if any.
func (u *user) releaseAdmission(home *node) {
	if !u.holdsSlot {
		return
	}
	u.holdsSlot = false
	home.admitted--
	if len(home.admitQ) > 0 {
		ev := home.admitQ[0]
		home.admitQ = home.admitQ[1:]
		ev.Trigger(nil)
	}
}

// noteAbortRate records one abort at time t for the admission gate's
// trailing-window rate estimate. No-op unless a thresholded gate is on.
func (n *node) noteAbortRate(t float64) {
	pol := &n.sys.cfg.Resilience.Admission
	if pol.MaxMPL <= 0 || pol.AbortRateThreshold <= 0 {
		return
	}
	n.recentAborts = append(n.recentAborts, t)
	n.pruneAborts(t)
}

// pruneAborts drops abort timestamps older than the trailing window.
func (n *node) pruneAborts(t float64) {
	w := n.sys.cfg.Resilience.Admission.WindowMS
	i := 0
	for i < len(n.recentAborts) && n.recentAborts[i] < t-w {
		i++
	}
	if i > 0 {
		n.recentAborts = n.recentAborts[i:]
	}
}

// gateEngaged reports whether the admission gate applies at time t: always,
// or only while the trailing abort rate is at or above the threshold.
func (n *node) gateEngaged(t float64) bool {
	pol := &n.sys.cfg.Resilience.Admission
	if pol.AbortRateThreshold <= 0 {
		return true
	}
	n.pruneAborts(t)
	rate := float64(len(n.recentAborts)) / pol.WindowMS * 1000
	return rate >= pol.AbortRateThreshold
}
