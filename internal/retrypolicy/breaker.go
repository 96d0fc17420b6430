package retrypolicy

import (
	"sync"
	"time"
)

// BreakerState is the circuit breaker's position.
type BreakerState int

// Breaker states, in the classic closed → open → half-open cycle.
const (
	// Closed: traffic flows; consecutive failures are counted.
	Closed BreakerState = iota
	// Open: traffic is refused until the cool-down elapses.
	Open
	// HalfOpen: a limited number of trial calls probe the peer; one
	// success re-closes the breaker, one failure re-opens it.
	HalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerConfig tunes a Breaker. The zero value resolves to defaults.
type BreakerConfig struct {
	// FailureThreshold is how many consecutive failures trip the breaker
	// open. Defaults to 5.
	FailureThreshold int
	// OpenFor is the cool-down before an open breaker admits half-open
	// probes. Defaults to 2s.
	OpenFor time.Duration
	// HalfOpenProbes caps concurrent trial calls while half-open.
	// Defaults to 1.
	HalfOpenProbes int
	// Clock overrides time.Now (tests).
	Clock func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 2 * time.Second
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 1
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Breaker is one address's circuit breaker. Callers ask Allow before an
// attempt and report the outcome with Success or Failure. Safe for
// concurrent use; state transitions are evaluated lazily (no goroutine).
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	failures int
	openedAt time.Time
	probes   int // in-flight half-open trial calls
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// tick applies the time-based open → half-open transition. Callers hold mu.
func (b *Breaker) tick() {
	if b.state == Open && b.cfg.Clock().Sub(b.openedAt) >= b.cfg.OpenFor {
		b.state = HalfOpen
		b.probes = 0
	}
}

// State reports the breaker's position, applying any due cool-down
// transition first.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tick()
	return b.state
}

// Allow reports whether an attempt may proceed now. While half-open it
// admits at most HalfOpenProbes concurrent trial calls; every admitted
// call must be concluded with Success, Failure or Abandon.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tick()
	switch b.state {
	case Closed:
		return true
	case HalfOpen:
		if b.probes >= b.cfg.HalfOpenProbes {
			return false
		}
		b.probes++
		return true
	default:
		return false
	}
}

// Success records a completed call: it re-closes a half-open (or even
// open — a late success proves the peer reachable) breaker and resets the
// consecutive-failure count.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = Closed
	b.failures = 0
	b.probes = 0
}

// Failure records a failed call. Enough consecutive failures trip a
// closed breaker; any failure re-opens a half-open one. Failures
// reported while already open (stragglers from calls admitted earlier)
// do not extend the cool-down.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tick()
	switch b.state {
	case Closed:
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.state = Open
			b.openedAt = b.cfg.Clock()
		}
	case HalfOpen:
		b.state = Open
		b.openedAt = b.cfg.Clock()
		b.probes = 0
	}
}

// Abandon concludes an admitted call whose caller gave up before it
// ended: the call says nothing about the peer, so it counts neither as a
// failure nor as a success, and only frees its half-open probe.
func (b *Breaker) Abandon() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen && b.probes > 0 {
		b.probes--
	}
}

// BreakerSet lazily maintains one Breaker per address under a shared
// config. Safe for concurrent use.
type BreakerSet struct {
	cfg BreakerConfig
	mu  sync.Mutex
	m   map[string]*Breaker
}

// NewBreakerSet builds an empty set.
func NewBreakerSet(cfg BreakerConfig) *BreakerSet {
	return &BreakerSet{cfg: cfg.withDefaults(), m: make(map[string]*Breaker)}
}

// For returns (creating on first use) the breaker for addr.
func (s *BreakerSet) For(addr string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[addr]
	if !ok {
		b = &Breaker{cfg: s.cfg}
		s.m[addr] = b
	}
	return b
}

// States snapshots every tracked address's state (observability).
func (s *BreakerSet) States() map[string]BreakerState {
	s.mu.Lock()
	addrs := make([]string, 0, len(s.m))
	breakers := make([]*Breaker, 0, len(s.m))
	for a, b := range s.m {
		addrs = append(addrs, a)
		breakers = append(breakers, b)
	}
	s.mu.Unlock()
	out := make(map[string]BreakerState, len(addrs))
	for i, a := range addrs {
		out[a] = breakers[i].State()
	}
	return out
}
