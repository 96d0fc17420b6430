// Package retrypolicy provides the resilience primitives shared by every
// RPC path in EF-dedup: capped exponential backoff with jitter,
// per-attempt timeouts, retry budgets, and per-address circuit breakers.
//
// The paper's reliability story (Sec. IV/V) is that a D2-ring keeps
// deduplicating through index-node failures and membership churn. That
// only holds if transient faults — a dropped dial, a reset connection, a
// stalled WAN link — are absorbed below the coordinator instead of
// surfacing as quorum failures. The pieces:
//
//   - Policy: declarative retry schedule (attempts, base/max delay,
//     multiplier, jitter fraction, per-attempt timeout).
//   - Retrier: executes an operation under a Policy, sleeping the
//     jittered backoff between attempts.
//   - Budget: a token bucket bounding the global retry amplification a
//     client may generate (retries spend, successes refill), so a
//     long-lived outage cannot turn every request into MaxAttempts
//     requests forever.
//   - Breaker / BreakerSet: per-address circuit breakers
//     (closed → open → half-open) so a dead peer fails fast after a few
//     attempts and is re-probed at a controlled rate.
//
// All operations retried through this package must be idempotent; every
// EF-dedup RPC is (content-addressed puts, last-write-wins entries,
// read-only probes).
package retrypolicy

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
)

// Sentinel errors returned by Retrier.Do.
var (
	// ErrBreakerOpen means the per-address circuit breaker refused the
	// attempt; the peer has been failing and its cool-down has not
	// elapsed. Callers should fail over or degrade rather than wait.
	ErrBreakerOpen = errors.New("retrypolicy: circuit breaker open")
	// ErrBudgetExhausted means the retry budget is spent; the operation
	// failed and was not retried.
	ErrBudgetExhausted = errors.New("retrypolicy: retry budget exhausted")
)

// Policy describes how one operation is retried. The zero value is valid
// and resolves to the package defaults; see the field comments.
type Policy struct {
	// MaxAttempts is the total number of attempts, including the first.
	// Defaults to 3. Set to 1 for single-attempt (no retry) semantics.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry. Defaults to 10ms.
	BaseDelay time.Duration
	// MaxDelay caps the (pre-jitter) backoff. Defaults to 1s.
	MaxDelay time.Duration
	// Multiplier is the exponential growth factor. Defaults to 2.
	Multiplier float64
	// Jitter spreads each delay uniformly over
	// [delay·(1-Jitter), delay·(1+Jitter)]. 0 means the default 0.2;
	// a negative value disables jitter.
	Jitter float64
	// AttemptTimeout bounds each individual attempt (a child context of
	// the caller's). Zero means no per-attempt timeout.
	AttemptTimeout time.Duration
	// Seed makes the jitter sequence deterministic when non-zero (tests
	// and reproducible chaos runs).
	Seed int64
}

// withDefaults resolves zero fields.
func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	switch {
	case p.Jitter == 0:
		p.Jitter = 0.2
	case p.Jitter < 0:
		p.Jitter = 0
	case p.Jitter > 1:
		p.Jitter = 1
	}
	return p
}

// Retrier executes operations under a Policy. It is safe for concurrent
// use; one Retrier is meant to be shared by all calls of a client.
type Retrier struct {
	p   Policy
	mu  sync.Mutex
	rng *rand.Rand
}

// New builds a Retrier, resolving policy defaults.
func New(p Policy) *Retrier {
	p = p.withDefaults()
	seed := p.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Retrier{p: p, rng: rand.New(rand.NewSource(seed))}
}

// Policy returns the resolved policy.
func (r *Retrier) Policy() Policy { return r.p }

// BackoffFor returns the jittered delay preceding the given retry
// (retry 1 is the first re-attempt).
func (r *Retrier) BackoffFor(retry int) time.Duration {
	if retry < 1 {
		retry = 1
	}
	d := float64(r.p.BaseDelay) * math.Pow(r.p.Multiplier, float64(retry-1))
	if d > float64(r.p.MaxDelay) {
		d = float64(r.p.MaxDelay)
	}
	if r.p.Jitter > 0 {
		r.mu.Lock()
		f := r.rng.Float64()
		r.mu.Unlock()
		d *= 1 - r.p.Jitter + 2*r.p.Jitter*f
	}
	return time.Duration(d)
}

// Do runs op until it succeeds, exhausts the policy, is refused by the
// breaker or budget, or the parent context ends. br and bud may be nil.
// retryable classifies errors; nil means every error is retryable.
// A non-retryable error (e.g. an application-level RemoteError, which
// proves the transport works) is returned immediately and counts as a
// breaker success.
func (r *Retrier) Do(ctx context.Context, br *Breaker, bud *Budget, retryable func(error) bool, op func(context.Context) error) error {
	var lastErr error
	for attempt := 1; ; attempt++ {
		if br != nil && !br.Allow() {
			if lastErr != nil {
				return fmt.Errorf("%w (last error: %v)", ErrBreakerOpen, lastErr)
			}
			return ErrBreakerOpen
		}
		err := r.attempt(ctx, op)
		if err == nil {
			if br != nil {
				br.Success()
			}
			if bud != nil {
				bud.Credit()
			}
			return nil
		}
		if retryable != nil && !retryable(err) {
			if br != nil {
				br.Success()
			}
			return err
		}
		if ctx.Err() != nil {
			// The caller gave up, which says nothing about the peer.
			if br != nil {
				br.Abandon()
			}
			return err
		}
		if br != nil {
			br.Failure()
		}
		lastErr = err
		if attempt >= r.p.MaxAttempts {
			return lastErr
		}
		if bud != nil && !bud.Spend() {
			return fmt.Errorf("%w (last error: %v)", ErrBudgetExhausted, lastErr)
		}
		timer := time.NewTimer(r.BackoffFor(attempt))
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return lastErr
		}
	}
}

// attempt runs op once, under a child context bounded by AttemptTimeout
// when one is set.
func (r *Retrier) attempt(ctx context.Context, op func(context.Context) error) error {
	if r.p.AttemptTimeout <= 0 {
		return op(ctx)
	}
	ctx, cancel := context.WithTimeout(ctx, r.p.AttemptTimeout)
	defer cancel()
	return op(ctx)
}

// Budget is a token bucket bounding retry amplification: each retry
// spends one token, each success credits a fraction back (capped). When
// the bucket is empty, retries are refused until successes refill it —
// under a total outage a client decays to single-attempt calls instead
// of multiplying load by MaxAttempts. Safe for concurrent use.
type Budget struct {
	mu     sync.Mutex
	tokens float64
	cap    float64
	credit float64
}

// NewBudget builds a full bucket holding capacity retry tokens, where
// each recorded success re-credits successCredit tokens (clamped to the
// capacity). capacity <= 0 yields an unlimited budget (Spend always
// succeeds).
func NewBudget(capacity, successCredit float64) *Budget {
	return &Budget{tokens: capacity, cap: capacity, credit: successCredit}
}

// Spend takes one retry token, reporting whether the retry is allowed.
func (b *Budget) Spend() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cap <= 0 {
		return true
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Credit records a success, refilling part of the budget.
func (b *Budget) Credit() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens += b.credit
	if b.tokens > b.cap {
		b.tokens = b.cap
	}
}

// Tokens reports the remaining retry tokens (observability and tests).
func (b *Budget) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}
