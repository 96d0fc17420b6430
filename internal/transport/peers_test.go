package transport

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"efdedup/internal/retrypolicy"
)

// countingDialer dials through a MemNetwork and keeps every conn it hands
// out, so a test can count dials and see which conns were closed. When
// arrived is set, each Dial reports there and then waits for gate.
type countingDialer struct {
	nw      *MemNetwork
	arrived chan struct{}
	gate    chan struct{}

	mu    sync.Mutex
	conns []*countedConn
}

type countedConn struct {
	net.Conn
	closed atomic.Bool
}

func (c *countedConn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

func (d *countingDialer) Dial(ctx context.Context, addr string) (net.Conn, error) {
	if d.arrived != nil {
		d.arrived <- struct{}{}
		<-d.gate
	}
	conn, err := d.nw.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	cc := &countedConn{Conn: conn}
	d.mu.Lock()
	d.conns = append(d.conns, cc)
	d.mu.Unlock()
	return cc, nil
}

// counts reports how many conns were dialed and how many are still open.
func (d *countingDialer) counts() (dials, open int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.conns {
		if !c.closed.Load() {
			open++
		}
	}
	return len(d.conns), open
}

// peerBed serves "echo" and "fail" at each address and returns a peer set
// reaching them through a counting dialer.
func peerBed(t *testing.T, p retrypolicy.Policy, b retrypolicy.BreakerConfig, addrs ...string) (*Peers, *countingDialer) {
	t.Helper()
	nw := NewMemNetwork()
	for _, addr := range addrs {
		s := NewServer()
		s.Handle("echo", func(body []byte) ([]byte, error) { return body, nil })
		s.Handle("fail", func([]byte) ([]byte, error) { return nil, errors.New("refused") })
		l, err := nw.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		go s.Serve(l) //nolint:errcheck // returns on Close
		t.Cleanup(func() { s.Close() })
	}
	d := &countingDialer{nw: nw}
	peers := NewPeers(d, p, b, nil)
	t.Cleanup(func() { peers.Close() })
	return peers, d
}

func (p *Peers) cached(addr string) *Client {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.clients[addr]
}

func TestPeersConcurrentFirstCallsCacheOneConn(t *testing.T) {
	const callers = 16
	p, d := peerBed(t, retrypolicy.Policy{}, retrypolicy.BreakerConfig{}, "a")
	d.arrived = make(chan struct{}, callers)
	d.gate = make(chan struct{})

	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := p.Call(context.Background(), "a", "echo", nil)
			errs <- err
		}()
	}
	// Every caller is inside Dial before any may install its conn, so all
	// of them race to cache one.
	for i := 0; i < callers; i++ {
		<-d.arrived
	}
	close(d.gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("Call: %v", err)
		}
	}
	if dials, open := d.counts(); dials != callers || open != 1 {
		t.Fatalf("dials = %d, open conns = %d; want %d dials and every loser closed", dials, open, callers)
	}
	if len(p.clients) != 1 || p.cached("a") == nil {
		t.Fatalf("cached clients = %d, want 1 for a", len(p.clients))
	}
}

func TestPeersTransportFailureDropsOnlyThatConn(t *testing.T) {
	ctx := context.Background()
	p, d := peerBed(t, retrypolicy.Policy{MaxAttempts: 1}, retrypolicy.BreakerConfig{}, "a", "b")
	for _, addr := range []string{"a", "b"} {
		if _, err := p.Call(ctx, addr, "echo", nil); err != nil {
			t.Fatal(err)
		}
	}
	clA, clB := p.cached("a"), p.cached("b")

	d.conns[0].Conn.Close() // a's link dies under the client
	if _, err := p.Call(ctx, "a", "echo", nil); err == nil || IsRemoteError(err) {
		t.Fatalf("Call over a dead conn = %v, want a transport error", err)
	}
	if p.cached("a") != nil || p.cached("b") != clB {
		t.Fatal("a transport failure on a must drop a's conn and only it")
	}
	if _, err := p.Call(ctx, "a", "echo", nil); err != nil {
		t.Fatalf("Call after the drop: %v", err)
	}
	if dials, _ := d.counts(); dials != 3 {
		t.Fatalf("dials = %d, want 3: the call after the drop redials", dials)
	}
	// A late drop of the failed conn leaves the fresh one cached.
	fresh := p.cached("a")
	p.drop("a", clA)
	if p.cached("a") != fresh {
		t.Fatal("a stale drop removed the redialed conn")
	}
}

func TestPeersRemoteErrorKeepsConnAndBreakerSuccess(t *testing.T) {
	ctx := context.Background()
	p, d := peerBed(t, retrypolicy.Policy{}, retrypolicy.BreakerConfig{FailureThreshold: 2}, "a")
	br := p.Breaker("a")
	br.Failure()
	if _, err := p.Call(ctx, "a", "fail", nil); !IsRemoteError(err) {
		t.Fatalf("Call = %v, want a RemoteError", err)
	}
	cl := p.cached("a")
	if _, err := p.Call(ctx, "a", "echo", nil); err != nil {
		t.Fatal(err)
	}
	if dials, open := d.counts(); dials != 1 || open != 1 || p.cached("a") != cl {
		t.Fatalf("dials = %d, open = %d: a remote error must keep the connection", dials, open)
	}
	// The remote error reset the failure count; had it counted as a
	// failure (or not at all), this second failure would open the breaker.
	br.Failure()
	if st := br.State(); st != retrypolicy.Closed {
		t.Fatalf("breaker = %v, want closed", st)
	}
}

func TestPeersCloseIsTerminal(t *testing.T) {
	ctx := context.Background()
	addrs := []string{"a", "b", "c"}
	p, d := peerBed(t, retrypolicy.Policy{}, retrypolicy.BreakerConfig{FailureThreshold: 1}, addrs...)
	for _, addr := range addrs {
		if _, err := p.Call(ctx, addr, "echo", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if dials, open := d.counts(); dials != len(addrs) || open != 0 {
		t.Fatalf("after Close: dials = %d, open = %d; want every cached conn closed", dials, open)
	}
	if _, err := p.Call(ctx, "a", "echo", nil); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Call after Close = %v, want ErrClientClosed", err)
	}
	if dials, _ := d.counts(); dials != len(addrs) {
		t.Fatal("Call after Close dialed")
	}
	if st := p.Breaker("a").State(); st != retrypolicy.Closed {
		t.Fatalf("breaker after a closed call = %v, want closed", st)
	}
}
