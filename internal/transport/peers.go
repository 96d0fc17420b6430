package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"efdedup/internal/retrypolicy"
)

// Peers is the client side of every EF-dedup RPC path: the index
// coordinator and the cloud client. It keeps one multiplexed
// Client per address, dialed on first use. A call runs under the
// caller's retry policy, the address's circuit breaker and an optional
// retry budget; a transport failure drops exactly the connection that
// failed, so the next attempt redials. Close is terminal. Safe for
// concurrent use.
type Peers struct {
	dialer   Dialer
	retrier  *retrypolicy.Retrier
	breakers *retrypolicy.BreakerSet
	budget   *retrypolicy.Budget

	mu      sync.Mutex
	clients map[string]*Client
	closed  atomic.Bool // set under mu; read without it on the fast path
}

// NewPeers builds an empty peer set. budget may be nil (retries are then
// bounded by the policy alone).
func NewPeers(d Dialer, p retrypolicy.Policy, b retrypolicy.BreakerConfig, budget *retrypolicy.Budget) *Peers {
	return &Peers{
		dialer:   d,
		retrier:  retrypolicy.New(p),
		breakers: retrypolicy.NewBreakerSet(b),
		budget:   budget,
		clients:  make(map[string]*Client),
	}
}

// Breaker returns addr's circuit breaker.
func (p *Peers) Breaker(addr string) *retrypolicy.Breaker { return p.breakers.For(addr) }

// BreakerStates snapshots the breaker state of every address contacted.
func (p *Peers) BreakerStates() map[string]retrypolicy.BreakerState { return p.breakers.States() }

// Call issues one RPC to addr. A RemoteError returns at once, keeps the
// connection and counts as a breaker success: it proves the transport
// works. Any other failure drops the connection and is retried over a
// fresh dial, except that a caller giving up while awaiting its reply
// leaves the connection to the calls sharing it. After Close, Call
// fails with ErrClientClosed without dialing, retrying or touching the
// breaker.
func (p *Peers) Call(ctx context.Context, addr, method string, body []byte) ([]byte, error) {
	if p.closed.Load() {
		return nil, fmt.Errorf("transport: %s to %s: %w", method, addr, ErrClientClosed)
	}
	var resp []byte
	err := p.retrier.Do(ctx, p.breakers.For(addr), p.budget, p.retryable,
		func(actx context.Context) error {
			for rerun := true; ; rerun = false {
				cl, err := p.client(actx, addr)
				if err != nil {
					return err
				}
				resp, err = cl.Call(actx, method, body)
				if err == nil || IsRemoteError(err) {
					return err
				}
				// A caller that gave up while awaiting its reply leaves
				// the connection whole; anything else, an expired
				// attempt included, ends it.
				if ctx.Err() == nil || cl.failed() {
					p.drop(addr, cl)
				}
				// Another caller's cut send ended the connection under
				// this call, which says nothing about the peer: run it
				// once more on a fresh one.
				if !rerun || !errors.Is(err, errSendCut) || actx.Err() != nil {
					return err
				}
			}
		})
	return resp, err
}

// Connect dials addr ahead of its first call, under the same policy and
// breaker, so a caller learns at startup that a peer is unreachable.
func (p *Peers) Connect(ctx context.Context, addr string) error {
	return p.retrier.Do(ctx, p.breakers.For(addr), p.budget, p.retryable,
		func(actx context.Context) error {
			_, err := p.client(actx, addr)
			return err
		})
}

// retryable is Retryable until Close: a closed set stops retrying the
// calls it cut off.
func (p *Peers) retryable(err error) bool { return Retryable(err) && !p.closed.Load() }

// client returns addr's connection, dialing it on first use. When two
// dials race, the first to install wins and the loser's conn is closed
// here, outside the lock.
func (p *Peers) client(ctx context.Context, addr string) (*Client, error) {
	p.mu.Lock()
	cl := p.clients[addr]
	p.mu.Unlock()
	if cl != nil {
		return cl, nil
	}
	if p.closed.Load() {
		return nil, ErrClientClosed
	}
	conn, err := p.dialer.Dial(ctx, addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	p.mu.Lock()
	closed := p.closed.Load()
	if cl = p.clients[addr]; cl == nil && !closed {
		cl = NewClient(conn)
		p.clients[addr] = cl
		conn = nil
	}
	p.mu.Unlock()
	if conn != nil { // lost the race, or Close ran during the dial
		conn.Close()
	}
	if closed {
		return nil, ErrClientClosed
	}
	return cl, nil
}

// drop discards cl after a transport failure so the next call to addr
// redials. Only that exact connection goes: a concurrent redial's fresh
// one survives.
func (p *Peers) drop(addr string, cl *Client) {
	p.mu.Lock()
	if p.clients[addr] == cl {
		delete(p.clients, addr)
	}
	p.mu.Unlock()
	cl.Close()
}

// Forget closes addr's connection, if one is cached (a peer leaving).
func (p *Peers) Forget(addr string) {
	p.mu.Lock()
	cl := p.clients[addr]
	p.mu.Unlock()
	if cl != nil {
		p.drop(addr, cl)
	}
}

// Close closes every cached connection. It is terminal: later calls fail
// with ErrClientClosed, and in-flight ones are not retried.
func (p *Peers) Close() error {
	p.mu.Lock()
	clients := p.clients
	p.clients = make(map[string]*Client)
	p.closed.Store(true)
	p.mu.Unlock()
	var errs []error
	for _, cl := range clients {
		errs = append(errs, cl.Close())
	}
	return errors.Join(errs...)
}
