// Package netem emulates wide-area network conditions for the EF-dedup
// testbed, standing in for the NetEm-based traffic control the paper used
// on its OpenStack/EC2 deployment.
//
// A Link describes one logical path (propagation delay plus a serialization
// bandwidth). Shape wraps a net.Conn so everything written to it is
// delivered only after the link's delay, with writes serialized at the
// link's bandwidth — the classic store-and-forward link model:
//
//	txStart   = max(now, end of previous transmission)
//	txEnd     = txStart + bytes/bandwidth
//	deliverAt = txEnd + delay
//
// A Topology groups node addresses into named sites (edge clouds, the
// central cloud) and assigns a Link per site pair. Topology.NetworkFor
// returns a transport.Network view for one site: connections dialed
// through it are shaped with the site-pair link, with the full round-trip
// delay charged on the request direction — the right model for RPC, where
// a call cannot complete before request and response both cross the WAN.
// Per-site-pair byte counters make measured network cost observable.
package netem

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"efdedup/internal/transport"
)

// Link describes the service characteristics of one logical network path.
type Link struct {
	// Delay is the round-trip propagation delay of the path.
	Delay time.Duration
	// Bandwidth is the serialization rate in bytes per second; zero
	// means unlimited.
	Bandwidth float64
}

// queue sizing for shaped connections: a bounded in-flight buffer models a
// socket send buffer and provides back-pressure.
const shapedQueueLen = 256

type packet struct {
	data      []byte
	deliverAt time.Time
}

// linkState is the serialization state of one physical link. Connections
// sharing a linkState contend for its bandwidth — the model of many edge
// nodes pushing through one provisioned uplink.
type linkState struct {
	mu       sync.Mutex
	nextFree time.Time // when the link finishes its current transmission
}

// shapedConn delays and rate-limits writes to the underlying connection.
type shapedConn struct {
	net.Conn
	link  Link
	state *linkState // shared across conns on the same physical link

	mu      sync.Mutex
	sendErr error

	queue chan packet
	done  chan struct{}
	wg    sync.WaitGroup

	onBytes func(int) // optional byte counter callback
}

// Shape wraps conn so that writes experience the link's delay and
// bandwidth (private to this connection). Reads pass through untouched.
// Closing the returned connection flushes nothing: in-flight shaped data
// is dropped, mimicking a failing link.
func Shape(conn net.Conn, link Link) net.Conn {
	return shapeWithCounter(conn, link, &linkState{}, nil)
}

func shapeWithCounter(conn net.Conn, link Link, state *linkState, onBytes func(int)) net.Conn {
	if link.Delay <= 0 && link.Bandwidth <= 0 {
		if onBytes == nil {
			return conn
		}
		return &countingConn{Conn: conn, onBytes: onBytes}
	}
	if state == nil {
		state = &linkState{}
	}
	s := &shapedConn{
		Conn:    conn,
		link:    link,
		state:   state,
		queue:   make(chan packet, shapedQueueLen),
		done:    make(chan struct{}),
		onBytes: onBytes,
	}
	s.wg.Add(1)
	go s.pump()
	return s
}

func (s *shapedConn) pump() {
	defer s.wg.Done()
	for {
		select {
		case p := <-s.queue:
			if wait := time.Until(p.deliverAt); wait > 0 {
				timer := time.NewTimer(wait)
				select {
				case <-timer.C:
				case <-s.done:
					timer.Stop()
					return
				}
			}
			if _, err := s.Conn.Write(p.data); err != nil {
				s.mu.Lock()
				if s.sendErr == nil {
					s.sendErr = err
				}
				s.mu.Unlock()
				return
			}
		case <-s.done:
			return
		}
	}
}

// Write implements net.Conn. It returns immediately once the data is
// accepted into the shaped queue (back-pressure applies when the queue is
// full) and reports any asynchronous delivery failure on a later call.
func (s *shapedConn) Write(p []byte) (int, error) {
	s.mu.Lock()
	if s.sendErr != nil {
		err := s.sendErr
		s.mu.Unlock()
		return 0, err
	}
	s.mu.Unlock()
	now := time.Now()
	txDur := time.Duration(0)
	if s.link.Bandwidth > 0 {
		txDur = time.Duration(float64(len(p)) / s.link.Bandwidth * float64(time.Second))
	}
	s.state.mu.Lock()
	txStart := s.state.nextFree
	if txStart.Before(now) {
		txStart = now
	}
	txEnd := txStart.Add(txDur)
	s.state.nextFree = txEnd
	s.state.mu.Unlock()

	data := make([]byte, len(p))
	copy(data, p)
	select {
	case s.queue <- packet{data: data, deliverAt: txEnd.Add(s.link.Delay)}:
	case <-s.done:
		return 0, net.ErrClosed
	}
	if s.onBytes != nil {
		s.onBytes(len(p))
	}
	return len(p), nil
}

// Close implements net.Conn.
func (s *shapedConn) Close() error {
	s.mu.Lock()
	select {
	case <-s.done:
		s.mu.Unlock()
		return nil
	default:
		close(s.done)
	}
	s.mu.Unlock()
	err := s.Conn.Close()
	s.wg.Wait()
	return err
}

// countingConn only counts written bytes.
type countingConn struct {
	net.Conn
	onBytes func(int)
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.onBytes(n)
	}
	return n, err
}

// ErrUnknownSite is returned when an address or site was never registered.
var ErrUnknownSite = errors.New("netem: unknown site")

// Topology assigns node addresses to sites and links to site pairs.
// It is safe for concurrent use.
type Topology struct {
	mu       sync.Mutex
	siteOf   map[string]string  // listen address -> site name
	links    map[[2]string]Link // (fromSite, toSite) -> link
	fallback Link
	bytes    map[[2]string]int64 // observed bytes per (fromSite, toSite)
	// shapers holds one serialization state per directed site pair, so
	// every connection crossing the same pair contends for the link's
	// bandwidth (a shared uplink), instead of each connection enjoying a
	// private link.
	shapers map[[2]string]*linkState
}

// NewTopology returns a topology whose unspecified site pairs use the
// fallback link. A zero fallback means unshaped.
func NewTopology(fallback Link) *Topology {
	return &Topology{
		siteOf:   make(map[string]string),
		links:    make(map[[2]string]Link),
		bytes:    make(map[[2]string]int64),
		shapers:  make(map[[2]string]*linkState),
		fallback: fallback,
	}
}

// SetFallback replaces the default link used for unspecified site pairs.
func (t *Topology) SetFallback(l Link) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fallback = l
}

// SetLink sets the link used from site a to site b (one direction).
func (t *Topology) SetLink(from, to string, l Link) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.links[[2]string{from, to}] = l
}

// SetSymmetricLink sets the same link in both directions.
func (t *Topology) SetSymmetricLink(a, b string, l Link) {
	t.SetLink(a, b, l)
	t.SetLink(b, a, l)
}

// Register maps a listen address to its site. The cluster harness calls
// this when it places a service.
func (t *Topology) Register(addr, site string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.siteOf[addr] = site
}

// Site returns the site a registered address belongs to.
func (t *Topology) Site(addr string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.siteOf[addr]
	if !ok {
		return "", fmt.Errorf("%w: address %q", ErrUnknownSite, addr)
	}
	return s, nil
}

// LinkBetween returns the link used from one site to another. Intra-site
// traffic with no explicit link is unshaped.
func (t *Topology) LinkBetween(from, to string) Link {
	t.mu.Lock()
	defer t.mu.Unlock()
	if l, ok := t.links[[2]string{from, to}]; ok {
		return l
	}
	if from == to {
		return Link{}
	}
	return t.fallback
}

func (t *Topology) addBytes(from, to string, n int) {
	t.mu.Lock()
	t.bytes[[2]string{from, to}] += int64(n)
	t.mu.Unlock()
}

// BytesSent reports the bytes observed from one site to another through
// shaped dials.
func (t *Topology) BytesSent(from, to string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytes[[2]string{from, to}]
}

// TotalInterSiteBytes sums observed traffic whose endpoints are in
// different sites.
func (t *Topology) TotalInterSiteBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total int64
	for key, n := range t.bytes {
		if key[0] != key[1] {
			total += n
		}
	}
	return total
}

// ResetCounters zeroes the byte counters.
func (t *Topology) ResetCounters() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.bytes = make(map[[2]string]int64)
}

// Network is a site-local view of an underlying transport network: dials
// are shaped by the topology's site-pair links.
type Network struct {
	topo  *Topology
	site  string
	inner transport.Network
}

// NetworkFor returns the shaped network view for a node located at the
// given site.
func (t *Topology) NetworkFor(site string, inner transport.Network) *Network {
	return &Network{topo: t, site: site, inner: inner}
}

// Listen binds addr on the inner network and registers it at this view's
// site.
func (n *Network) Listen(addr string) (net.Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	n.topo.Register(l.Addr().String(), n.site)
	return l, nil
}

// Dial connects to addr, shaping the connection with the link between this
// view's site and the target's site. The link's full round-trip delay is
// charged on the request path.
func (n *Network) Dial(ctx context.Context, addr string) (net.Conn, error) {
	toSite, err := n.topo.Site(addr)
	if err != nil {
		return nil, err
	}
	conn, err := n.inner.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	link := n.topo.LinkBetween(n.site, toSite)
	from, to := n.site, toSite
	state := n.topo.shaperFor(from, to)
	return shapeWithCounter(conn, link, state, func(b int) { n.topo.addBytes(from, to, b) }), nil
}

// shaperFor returns the shared serialization state of a directed site
// pair, creating it on first use.
func (t *Topology) shaperFor(from, to string) *linkState {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := [2]string{from, to}
	s, ok := t.shapers[key]
	if !ok {
		s = &linkState{}
		t.shapers[key] = s
	}
	return s
}
