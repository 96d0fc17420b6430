package retrypolicy

import (
	"context"
	"errors"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

// fakeClock is a settable time source for breaker tests.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{now: time.Unix(0, 0)} }
func breakerWith(c *fakeClock, cfg BreakerConfig) *Breaker {
	cfg.Clock = c.Now
	return NewBreaker(cfg)
}

func TestPolicyDefaults(t *testing.T) {
	p := Policy{}.withDefaults()
	if p.MaxAttempts != 3 || p.BaseDelay != 10*time.Millisecond || p.MaxDelay != time.Second {
		t.Fatalf("unexpected defaults: %+v", p)
	}
	if p.Jitter != 0.2 || p.Multiplier != 2 {
		t.Fatalf("unexpected defaults: %+v", p)
	}
	if j := (Policy{Jitter: -1}).withDefaults().Jitter; j != 0 {
		t.Fatalf("negative jitter resolved to %v, want 0 (disabled)", j)
	}
}

// TestBackoffJitterBounds: every jittered delay stays within
// [d·(1-j), d·(1+j)] of the capped exponential schedule.
func TestBackoffJitterBounds(t *testing.T) {
	base, max := 10*time.Millisecond, 80*time.Millisecond
	r := New(Policy{BaseDelay: base, MaxDelay: max, Multiplier: 2, Jitter: 0.25, Seed: 42, MaxAttempts: 10})
	for retry := 1; retry <= 8; retry++ {
		want := float64(base) * float64(int(1)<<(retry-1))
		if want > float64(max) {
			want = float64(max)
		}
		for i := 0; i < 100; i++ {
			got := float64(r.BackoffFor(retry))
			if got < want*0.75-1 || got > want*1.25+1 {
				t.Fatalf("retry %d: backoff %v outside [%v, %v]",
					retry, time.Duration(got), time.Duration(want*0.75), time.Duration(want*1.25))
			}
		}
	}
}

// TestBackoffDeterministicSeed: identical seeds give identical sequences.
func TestBackoffDeterministicSeed(t *testing.T) {
	mk := func() []time.Duration {
		r := New(Policy{Seed: 7})
		out := make([]time.Duration, 6)
		for i := range out {
			out[i] = r.BackoffFor(i + 1)
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded sequences diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestBackoffNoJitterIsExact(t *testing.T) {
	r := New(Policy{BaseDelay: 4 * time.Millisecond, MaxDelay: 20 * time.Millisecond, Multiplier: 2, Jitter: -1})
	want := []time.Duration{4, 8, 16, 20, 20}
	for i, w := range want {
		if got := r.BackoffFor(i + 1); got != w*time.Millisecond {
			t.Fatalf("retry %d: backoff = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	r := New(Policy{MaxAttempts: 5, BaseDelay: time.Millisecond, Jitter: -1})
	calls := 0
	err := r.Do(context.Background(), nil, nil, nil, func(context.Context) error {
		calls++
		if calls < 3 {
			return errBoom
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("Do = %v after %d calls, want nil after 3", err, calls)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	r := New(Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Jitter: -1})
	calls := 0
	err := r.Do(context.Background(), nil, nil, nil, func(context.Context) error {
		calls++
		return errBoom
	})
	if !errors.Is(err, errBoom) || calls != 3 {
		t.Fatalf("Do = %v after %d calls, want boom after 3", err, calls)
	}
}

func TestDoNonRetryableReturnsImmediately(t *testing.T) {
	r := New(Policy{MaxAttempts: 5, BaseDelay: time.Millisecond})
	app := errors.New("application says no")
	calls := 0
	err := r.Do(context.Background(), nil, nil,
		func(err error) bool { return !errors.Is(err, app) },
		func(context.Context) error { calls++; return app })
	if !errors.Is(err, app) || calls != 1 {
		t.Fatalf("Do = %v after %d calls, want app error after 1", err, calls)
	}
}

func TestDoRespectsContextCancellation(t *testing.T) {
	r := New(Policy{MaxAttempts: 100, BaseDelay: 50 * time.Millisecond, Jitter: -1})
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	start := time.Now()
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	err := r.Do(ctx, nil, nil, nil, func(context.Context) error { calls++; return errBoom })
	if err == nil {
		t.Fatal("Do succeeded under cancellation")
	}
	if calls > 3 || time.Since(start) > 2*time.Second {
		t.Fatalf("cancellation did not stop retries promptly (%d calls)", calls)
	}
}

func TestDoPerAttemptTimeout(t *testing.T) {
	r := New(Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, Jitter: -1, AttemptTimeout: 10 * time.Millisecond})
	deadlines := 0
	err := r.Do(context.Background(), nil, nil, nil, func(ctx context.Context) error {
		<-ctx.Done()
		deadlines++
		return ctx.Err()
	})
	if err == nil || deadlines != 2 {
		t.Fatalf("Do = %v with %d attempt deadlines, want error with 2", err, deadlines)
	}
}

// TestBudgetExhaustion: a capped budget refuses retries once spent and
// refills on successes.
func TestBudgetExhaustion(t *testing.T) {
	r := New(Policy{MaxAttempts: 10, BaseDelay: time.Millisecond, Jitter: -1})
	bud := NewBudget(2, 1)
	calls := 0
	err := r.Do(context.Background(), nil, bud, nil, func(context.Context) error { calls++; return errBoom })
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("Do = %v, want ErrBudgetExhausted", err)
	}
	if calls != 3 { // first attempt + 2 budgeted retries
		t.Fatalf("spent %d calls, want 3", calls)
	}
	if bud.Tokens() != 0 {
		t.Fatalf("tokens = %v, want 0", bud.Tokens())
	}
	// A success refills one token…
	if err := r.Do(context.Background(), nil, bud, nil, func(context.Context) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if bud.Tokens() != 1 {
		t.Fatalf("tokens after credit = %v, want 1", bud.Tokens())
	}
	// …allowing exactly one more retry.
	calls = 0
	err = r.Do(context.Background(), nil, bud, nil, func(context.Context) error { calls++; return errBoom })
	if !errors.Is(err, ErrBudgetExhausted) || calls != 2 {
		t.Fatalf("Do = %v after %d calls, want ErrBudgetExhausted after 2", err, calls)
	}
}

func TestBudgetUnlimited(t *testing.T) {
	bud := NewBudget(0, 0)
	for i := 0; i < 100; i++ {
		if !bud.Spend() {
			t.Fatal("unlimited budget refused a retry")
		}
	}
}

// TestBreakerOpensAtThreshold: consecutive failures trip the breaker;
// a success along the way resets the count.
func TestBreakerOpensAtThreshold(t *testing.T) {
	clk := newFakeClock()
	b := breakerWith(clk, BreakerConfig{FailureThreshold: 3, OpenFor: time.Second})
	b.Failure()
	b.Failure()
	b.Success() // resets the streak
	b.Failure()
	b.Failure()
	if b.State() != Closed {
		t.Fatalf("state = %v before threshold, want closed", b.State())
	}
	b.Failure()
	if b.State() != Open {
		t.Fatalf("state = %v after threshold, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a call")
	}
}

// TestBreakerHalfOpenCycle: cool-down admits limited probes; failure
// re-opens, success re-closes.
func TestBreakerHalfOpenCycle(t *testing.T) {
	clk := newFakeClock()
	b := breakerWith(clk, BreakerConfig{FailureThreshold: 1, OpenFor: time.Second, HalfOpenProbes: 1})
	b.Failure()
	if b.State() != Open {
		t.Fatalf("state = %v, want open", b.State())
	}
	clk.Advance(999 * time.Millisecond)
	if b.Allow() {
		t.Fatal("breaker admitted a probe before the cool-down elapsed")
	}
	clk.Advance(2 * time.Millisecond)
	if b.State() != HalfOpen {
		t.Fatalf("state = %v after cool-down, want half-open", b.State())
	}
	if !b.Allow() {
		t.Fatal("half-open breaker refused its probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// Probe fails: back to open, cool-down restarts.
	b.Failure()
	if b.State() != Open || b.Allow() {
		t.Fatal("failed probe did not re-open the breaker")
	}
	clk.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("re-opened breaker refused a probe after cool-down")
	}
	// Probe succeeds: closed again, traffic flows.
	b.Success()
	if b.State() != Closed || !b.Allow() || !b.Allow() {
		t.Fatal("successful probe did not re-close the breaker")
	}
}

// TestDoFailsFastWhenBreakerOpen: Do refuses without calling op.
func TestDoFailsFastWhenBreakerOpen(t *testing.T) {
	clk := newFakeClock()
	b := breakerWith(clk, BreakerConfig{FailureThreshold: 1, OpenFor: time.Hour})
	b.Failure()
	r := New(Policy{MaxAttempts: 3, BaseDelay: time.Millisecond})
	calls := 0
	err := r.Do(context.Background(), b, nil, nil, func(context.Context) error { calls++; return nil })
	if !errors.Is(err, ErrBreakerOpen) || calls != 0 {
		t.Fatalf("Do = %v with %d calls, want ErrBreakerOpen with 0", err, calls)
	}
}

// TestDoTripsBreaker: repeated failures through Do open the breaker.
func TestDoTripsBreaker(t *testing.T) {
	clk := newFakeClock()
	b := breakerWith(clk, BreakerConfig{FailureThreshold: 2, OpenFor: time.Hour})
	r := New(Policy{MaxAttempts: 5, BaseDelay: time.Millisecond, Jitter: -1})
	calls := 0
	err := r.Do(context.Background(), b, nil, nil, func(context.Context) error { calls++; return errBoom })
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Do = %v, want ErrBreakerOpen once tripped mid-retry", err)
	}
	if calls != 2 {
		t.Fatalf("op ran %d times, want 2 (threshold)", calls)
	}
	if b.State() != Open {
		t.Fatalf("state = %v, want open", b.State())
	}
}

func TestBreakerSet(t *testing.T) {
	s := NewBreakerSet(BreakerConfig{FailureThreshold: 1, OpenFor: time.Hour})
	a, b := s.For("a"), s.For("b")
	if s.For("a") != a {
		t.Fatal("For returned a different breaker for the same address")
	}
	a.Failure()
	if a.State() != Open || b.State() != Closed {
		t.Fatal("breakers are not independent per address")
	}
	states := s.States()
	if states["a"] != Open || states["b"] != Closed {
		t.Fatalf("States() = %v", states)
	}
}

func TestBreakerStateString(t *testing.T) {
	for s, want := range map[BreakerState]string{Closed: "closed", Open: "open", HalfOpen: "half-open"} {
		if s.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(s), s.String(), want)
		}
	}
}

// TestCallerCancellationIsNoVerdict: calls whose caller gave up neither
// trip a closed breaker nor keep a half-open probe slot.
func TestCallerCancellationIsNoVerdict(t *testing.T) {
	clk := newFakeClock()
	b := breakerWith(clk, BreakerConfig{FailureThreshold: 2, OpenFor: time.Second, HalfOpenProbes: 1})
	r := New(Policy{MaxAttempts: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 5; i++ {
		_ = r.Do(ctx, b, nil, nil, func(ctx context.Context) error { return ctx.Err() })
	}
	if st := b.State(); st != Closed {
		t.Fatalf("cancelled calls tripped the breaker: %v", st)
	}
	b.Failure()
	b.Failure()
	clk.Advance(time.Second)
	_ = r.Do(ctx, b, nil, nil, func(ctx context.Context) error { return ctx.Err() })
	if !b.Allow() {
		t.Fatal("an abandoned half-open probe kept its slot")
	}
}
