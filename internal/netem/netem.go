// Package netem emulates the network the EF-dedup testbed runs on: the
// NetEm-shaped links of the paper's OpenStack/EC2 deployment, and the
// partitions and flaky connections its reliability claims (Sec. IV/V) are
// tested against.
//
// A Topology groups node addresses into named sites and assigns a Link per
// directed site pair. Every connection dialed through a site's view
// (Topology.NetworkFor) counts the bytes it writes under its site pair
// and, when the pair's link is not zero, delivers them store-and-forward:
//
//	txStart   = max(now, end of previous transmission on the pair)
//	txEnd     = txStart + bytes/bandwidth
//	deliverAt = txEnd + delay
//
// Connections crossing one directed pair share its serialization state:
// many edge nodes pushing through one provisioned uplink. The link's full
// round-trip delay is charged on the request direction, since a call
// cannot complete before request and response both cross the WAN.
// Responses cross unshaped and uncounted, so they pay no bandwidth.
//
// Faults come in two flavours, each failure wrapping ErrInjected:
//
//   - Scripted: Partition/Heal cut a directed site pair, Isolate/Restore
//     one address; new dials across a cut are refused and established
//     connections reset. Schedule scripts "partition ring A from node 2
//     for 500ms, then heal" while a workload runs through it.
//   - Stochastic but deterministic: SetFaults probabilities inject dial
//     refusals, mid-stream resets and write stalls from a seeded PRNG, so
//     a chaos run is reproducible from its seed.
package netem

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"efdedup/internal/metrics"
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

// Faults tunes the stochastic fault injectors. All probabilities are in
// [0,1]; the zero value injects nothing.
type Faults struct {
	Seed         int64         // PRNG seed; the same seed, zero included, replays the same faults
	DialFailProb float64       // probability that a dial is refused
	ResetProb    float64       // per-write probability of a mid-stream reset
	StallProb    float64       // per-write probability of a stall before the bytes move
	StallFor     time.Duration // stall duration; 20ms when zero and StallProb is set
}

var (
	// ErrUnknownSite is returned when an address was never registered.
	ErrUnknownSite = errors.New("netem: unknown site")
	// ErrInjected marks every failure a Topology fabricates, so tests and
	// retry classifiers can tell injected faults from real ones.
	ErrInjected = errors.New("netem: injected fault")
)

// injected counts one fabricated fault of kind (dial-cut, dial-refused,
// reset, stall or partition-reset): how much adversity a run faced.
func injected(kind string) {
	metrics.Default().Counter("netem_faults_injected_total", "kind", kind).Inc()
}

// linkState is the shared state of one directed site pair: when its link
// finishes the current transmission, and the bytes written across it.
type linkState struct {
	mu       sync.Mutex
	nextFree time.Time
	bytes    atomic.Int64
}

// Topology assigns node addresses to sites, links to site pairs, and
// holds the fault state. It is safe for concurrent use.
type Topology struct {
	mu       sync.Mutex
	fallback Link
	siteOf   map[string]string        // listen address -> site name
	links    map[[2]string]Link       // (fromSite, toSite) -> link
	pairs    map[[2]string]*linkState // (fromSite, toSite) -> shared state
	cutSites map[[2]string]bool       // directed (fromSite, toSite) cuts
	cutNodes map[string]bool          // isolated addresses
	conns    map[*conn]bool           // open dialed conns, for cuts to reset
	closed   bool                     // every path is cut
	rng      *rand.Rand               // set with faults
	faults   atomic.Pointer[Faults]   // nil until SetFaults
}

// NewTopology returns a topology whose unspecified site pairs use the
// fallback link. A zero fallback means unshaped.
func NewTopology(fallback Link) *Topology {
	return &Topology{
		fallback: fallback,
		siteOf:   make(map[string]string),
		links:    make(map[[2]string]Link),
		pairs:    make(map[[2]string]*linkState),
		cutSites: make(map[[2]string]bool),
		cutNodes: make(map[string]bool),
		conns:    make(map[*conn]bool),
	}
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

// BytesSent reports the bytes dialed conns wrote from one site to another.
func (t *Topology) BytesSent(from, to string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.pairs[[2]string{from, to}]; s != nil {
		return s.bytes.Load()
	}
	return 0
}

// TotalInterSiteBytes sums the bytes written between different sites.
func (t *Topology) TotalInterSiteBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total int64
	for key, s := range t.pairs {
		if key[0] != key[1] {
			total += s.bytes.Load()
		}
	}
	return total
}

// ResetCounters zeroes the byte counters.
func (t *Topology) ResetCounters() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.pairs {
		s.bytes.Store(0)
	}
}

// SetFaults arms the stochastic fault injectors and seeds their PRNG.
func (t *Topology) SetFaults(f Faults) {
	if f.StallProb > 0 && f.StallFor <= 0 {
		f.StallFor = 20 * time.Millisecond
	}
	t.mu.Lock()
	t.rng = rand.New(rand.NewSource(f.Seed))
	t.mu.Unlock()
	t.faults.Store(&f)
}

// roll draws one uniform [0,1) variate from the fault PRNG.
func (t *Topology) roll() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rng.Float64()
}

// cutLocked reports whether a cut stands on a site pair to addr. Hold mu.
func (t *Topology) cutLocked(pair [2]string, addr string) bool {
	return t.closed || t.cutNodes[addr] || t.cutSites[pair]
}

// setCuts applies change to the cut state and resets the conns it severs.
func (t *Topology) setCuts(change func()) {
	var victims []*conn
	t.mu.Lock()
	change()
	for c := range t.conns {
		if t.cutLocked(c.pair, c.raddr) {
			victims = append(victims, c)
		}
	}
	t.mu.Unlock()
	for _, c := range victims {
		injected("partition-reset")
		c.fail(fmt.Errorf("%w: connection reset by partition", ErrInjected))
	}
}

// Partition cuts traffic from one site to another, one way: new dials
// across the cut are refused and conns dialed across it are reset.
func (t *Topology) Partition(from, to string) {
	t.setCuts(func() { t.cutSites[[2]string{from, to}] = true })
}

// PartitionBoth cuts a site pair in both directions.
func (t *Topology) PartitionBoth(a, b string) {
	t.Partition(a, b)
	t.Partition(b, a)
}

// Heal removes a directed site cut.
func (t *Topology) Heal(from, to string) {
	t.setCuts(func() { delete(t.cutSites, [2]string{from, to}) })
}

// Isolate cuts one address off: dials to it are refused, its conns reset.
func (t *Topology) Isolate(addr string) {
	t.setCuts(func() { t.cutNodes[addr] = true })
}

// Restore lifts an Isolate.
func (t *Topology) Restore(addr string) {
	t.setCuts(func() { delete(t.cutNodes, addr) })
}

// HealAll removes every site and address cut.
func (t *Topology) HealAll() {
	t.setCuts(func() {
		clear(t.cutSites)
		clear(t.cutNodes)
	})
}

// Schedule runs step against the topology after d unless it is closed by
// then: chain calls to script "partition at t=100ms, heal at t=600ms".
func (t *Topology) Schedule(d time.Duration, step func(*Topology)) {
	time.AfterFunc(d, func() {
		t.mu.Lock()
		closed := t.closed
		t.mu.Unlock()
		if !closed {
			step(t)
		}
	})
}

// Close cancels pending scheduled steps and cuts every path for good: open
// connections are reset and later dials refused.
func (t *Topology) Close() {
	t.setCuts(func() { t.closed = true })
}

// Network is one site's view of an inner transport network.
type Network struct {
	topo  *Topology
	site  string
	inner transport.Network
}

// NetworkFor returns the view for services located at site.
func (t *Topology) NetworkFor(site string, inner transport.Network) *Network {
	return &Network{topo: t, site: site, inner: inner}
}

// Listen binds addr on the inner network and registers it at this site.
func (n *Network) Listen(addr string) (net.Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	addr = l.Addr().String()
	n.topo.mu.Lock()
	n.topo.siteOf[addr] = n.site
	n.topo.mu.Unlock()
	return l, nil
}

// Dial connects to addr unless a cut or an injected refusal stands in the
// way, and wraps the connection in the link from this site to addr's.
func (n *Network) Dial(ctx context.Context, addr string) (net.Conn, error) {
	t := n.topo
	to, err := t.Site(addr)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	cut := t.cutLocked([2]string{n.site, to}, addr)
	t.mu.Unlock()
	if cut {
		injected("dial-cut")
		return nil, fmt.Errorf("%w: dial %q: partitioned from %q", ErrInjected, addr, n.site)
	}
	if f := t.faults.Load(); f != nil && f.DialFailProb > 0 && t.roll() < f.DialFailProb {
		injected("dial-refused")
		return nil, fmt.Errorf("%w: dial %q: connection refused", ErrInjected, addr)
	}
	inner, err := n.inner.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return t.shape(inner, n.site, to, addr), nil
}

// shapedQueueLen bounds a shaped conn's queued writes like a socket send
// buffer, so a full queue pushes back on the writer.
const shapedQueueLen = 256

type packet struct {
	data      []byte
	deliverAt time.Time
}

// conn is a connection dialed through a topology: it counts written bytes,
// delivers them store-and-forward on a non-zero link, and carries injected
// faults. Once ended, every Write and failing Read returns what ended it.
type conn struct {
	net.Conn
	topo  *Topology
	pair  [2]string // (fromSite, toSite)
	raddr string
	link  Link
	state *linkState    // shared by every conn on the same site pair
	queue chan packet   // nil on a zero link: writes go straight through
	done  chan struct{} // closed when the conn ends; nil on a zero link
	wg    sync.WaitGroup
	err   atomic.Pointer[error] // what ended the conn: injected reset, failed delivery or net.ErrClosed
}

// shape wraps inner, dialed from one site to raddr at another, in the
// pair's link and tracks it for cuts. Only a non-zero link starts a pump.
func (t *Topology) shape(inner net.Conn, from, to, raddr string) *conn {
	c := &conn{Conn: inner, topo: t, pair: [2]string{from, to}, raddr: raddr, link: t.LinkBetween(from, to)}
	t.mu.Lock()
	if c.state = t.pairs[c.pair]; c.state == nil {
		c.state = &linkState{}
		t.pairs[c.pair] = c.state
	}
	t.conns[c] = true
	t.mu.Unlock()
	if c.link.Delay > 0 || c.link.Bandwidth > 0 {
		c.queue = make(chan packet, shapedQueueLen)
		c.done = make(chan struct{})
		c.wg.Add(1)
		go c.pump()
	}
	return c
}

func (c *conn) pump() {
	defer c.wg.Done()
	for {
		select {
		case p := <-c.queue:
			if wait := time.Until(p.deliverAt); wait > 0 {
				timer := time.NewTimer(wait)
				select {
				case <-timer.C:
				case <-c.done:
					timer.Stop()
					return
				}
			}
			if _, err := c.Conn.Write(p.data); err != nil {
				c.fail(err)
				return
			}
		case <-c.done:
			return
		}
	}
}

// errOr returns the error that ended the conn, or err while none has.
func (c *conn) errOr(err error) error {
	if ended := c.err.Load(); ended != nil {
		return *ended
	}
	return err
}

// Write applies the injected faults, then writes p through on a zero link
// or queues it for delivery, blocking only while the queue is full.
func (c *conn) Write(p []byte) (int, error) {
	if f := c.topo.faults.Load(); f != nil {
		if err := c.inject(f); err != nil {
			return 0, err
		}
	}
	if c.queue == nil {
		n, err := c.Conn.Write(p)
		c.state.bytes.Add(int64(n))
		if err != nil {
			err = c.errOr(err)
		}
		return n, err
	}
	if err := c.errOr(nil); err != nil {
		return 0, err
	}
	txDur := time.Duration(0)
	if c.link.Bandwidth > 0 {
		txDur = time.Duration(float64(len(p)) / c.link.Bandwidth * float64(time.Second))
	}
	c.state.mu.Lock()
	txStart := c.state.nextFree
	if now := time.Now(); txStart.Before(now) {
		txStart = now
	}
	c.state.nextFree = txStart.Add(txDur)
	deliverAt := c.state.nextFree.Add(c.link.Delay)
	c.state.mu.Unlock()

	data := make([]byte, len(p))
	copy(data, p)
	select {
	case c.queue <- packet{data: data, deliverAt: deliverAt}:
	case <-c.done:
		return 0, c.errOr(net.ErrClosed)
	}
	c.state.bytes.Add(int64(len(p)))
	return len(p), nil
}

// inject rolls f's per-write faults: a reset ends the conn, a stall waits.
func (c *conn) inject(f *Faults) error {
	if err := c.errOr(nil); err != nil {
		return err
	}
	if f.ResetProb > 0 && c.topo.roll() < f.ResetProb {
		injected("reset")
		err := fmt.Errorf("%w: connection reset mid-stream", ErrInjected)
		c.fail(err)
		return err
	}
	if f.StallProb > 0 && c.topo.roll() < f.StallProb {
		injected("stall")
		time.Sleep(f.StallFor)
	}
	return nil
}

// Read delegates, surfacing the error that ended the conn on failure.
func (c *conn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err != nil {
		err = c.errOr(err)
	}
	return n, err
}

// fail ends the conn with err, once: it stops delivery, closes the inner
// conn so blocked readers and the peer see the end, and untracks it.
func (c *conn) fail(err error) error {
	if !c.err.CompareAndSwap(nil, &err) {
		return nil
	}
	if c.done != nil {
		close(c.done)
	}
	c.topo.mu.Lock()
	delete(c.topo.conns, c)
	c.topo.mu.Unlock()
	return c.Conn.Close()
}

// Close implements net.Conn, dropping queued data like a failing link.
func (c *conn) Close() error {
	err := c.fail(net.ErrClosed)
	c.wg.Wait()
	return err
}
