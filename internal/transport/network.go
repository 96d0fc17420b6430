package transport

import (
	"context"
	"fmt"
	"net"
	"sync"
)

// Dialer is the client half of a Network: all an RPC caller needs.
type Dialer interface {
	// Dial connects to a previously bound address.
	Dial(ctx context.Context, addr string) (net.Conn, error)
}

// Network abstracts how services listen and dial, so the same cluster code
// runs over real TCP, an in-memory fabric, or a netem-shaped wrapper of
// either.
type Network interface {
	// Listen binds the given address and returns a listener.
	Listen(addr string) (net.Listener, error)
	Dialer
}

// TCPNetwork is the real thing. Addresses are host:port; "host:0" asks the
// kernel for a free port (read it back from Listener.Addr).
type TCPNetwork struct{}

var _ Network = TCPNetwork{}

// Listen implements Network.
func (TCPNetwork) Listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// Dial implements Network.
func (TCPNetwork) Dial(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

// MemNetwork is an in-process fabric: listeners register under arbitrary
// string addresses and dials are wired through synchronous pipes. It lets
// a whole edge deployment (agents, KV rings, cloud) run inside one test.
type MemNetwork struct {
	mu        sync.Mutex
	listeners map[string]*memListener
}

var _ Network = (*MemNetwork)(nil)

// NewMemNetwork returns an empty fabric.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{listeners: make(map[string]*memListener)}
}

// Listen implements Network.
func (m *MemNetwork) Listen(addr string) (net.Listener, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.listeners[addr]; ok {
		return nil, fmt.Errorf("%w: %q", ErrAddrInUse, addr)
	}
	l := &memListener{
		net:    m,
		addr:   memAddr(addr),
		accept: make(chan net.Conn, acceptBacklog),
		closed: make(chan struct{}),
	}
	m.listeners[addr] = l
	return l, nil
}

// Dial implements Network.
func (m *MemNetwork) Dial(ctx context.Context, addr string) (net.Conn, error) {
	m.mu.Lock()
	l := m.listeners[addr]
	m.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("%w: dial %q", ErrRefused, addr)
	}
	client, server := net.Pipe()
	select {
	case l.accept <- server:
		// When close raced the enqueue, the select above may have
		// picked the send even though closed was also ready — and the
		// Close-side drain may already have run, stranding the conn in
		// the backlog with no reader. Re-check and refuse.
		select {
		case <-l.closed:
			client.Close()
			server.Close()
			return nil, fmt.Errorf("%w: dial %q", ErrRefused, addr)
		default:
			return client, nil
		}
	case <-l.closed:
		client.Close()
		server.Close()
		return nil, fmt.Errorf("%w: dial %q", ErrRefused, addr)
	case <-ctx.Done():
		client.Close()
		server.Close()
		return nil, ctx.Err()
	}
}

func (m *MemNetwork) remove(addr string) {
	m.mu.Lock()
	delete(m.listeners, addr)
	m.mu.Unlock()
}

// acceptBacklog is the pending-connection queue depth, the fabric's
// equivalent of the kernel's listen(2) backlog. Without it every Dial
// blocked until the server got around to Accept, so a busy accept loop
// head-of-line-blocked all of its dialers.
const acceptBacklog = 16

type memAddr string

func (memAddr) Network() string  { return "mem" }
func (a memAddr) String() string { return string(a) }

type memListener struct {
	net       *MemNetwork
	addr      memAddr
	accept    chan net.Conn
	closeOnce sync.Once
	closed    chan struct{}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.closeOnce.Do(func() {
		close(l.closed)
		l.net.remove(string(l.addr))
		// Drain connections parked in the backlog so their peers see
		// a closed pipe instead of hanging on a conn nobody accepts.
		for {
			select {
			case c := <-l.accept:
				c.Close()
			default:
				return
			}
		}
	})
	return nil
}

func (l *memListener) Addr() net.Addr { return l.addr }
