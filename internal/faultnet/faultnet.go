// Package faultnet is EF-dedup's chaos layer: a fault-injecting wrapper
// around any transport.Network-shaped fabric (the in-memory fabric, real
// TCP, or a netem-shaped view of either). It exists to prove the paper's
// reliability claims — that a D2-ring keeps deduplicating through
// index-node failures and membership churn (Sec. IV/V) — under scripted
// WAN faults rather than hoping for them.
//
// A Fabric holds global fault state; NetworkFor returns a site-local
// Listen/Dial view, mirroring netem.Topology's API so the two compose in
// either order:
//
//	topo := netem.NewTopology(wan)
//	chaos := faultnet.NewFabric(faultnet.Config{Seed: 1})
//	nw := chaos.NetworkFor("edge-a", topo.NetworkFor("edge-a", mem))
//
// Faults come in two flavours:
//
//   - Scripted: Partition/Heal cut a directed site pair (new dials are
//     refused, established connections crossing the cut are reset);
//     Isolate/Restore cut one address both ways. Schedule arms a timer so
//     tests can script "partition ring A from node 2 for 500ms, then
//     heal" and let the workload run through it.
//   - Stochastic but deterministic: Config probabilities inject dial
//     refusals, mid-stream connection resets and transient write stalls
//     from a seeded PRNG, so a chaos run is reproducible from its seed.
package faultnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"efdedup/internal/metrics"
	"efdedup/internal/transport"
)

// ErrInjected marks every failure this package fabricates, so tests and
// retry classifiers can tell injected faults from real ones.
var ErrInjected = errors.New("faultnet: injected fault")

// Config tunes the stochastic fault injectors. All probabilities are in
// [0,1]; the zero value injects nothing until scripted faults are added.
type Config struct {
	// Seed drives the PRNG behind every probabilistic fault; zero means
	// time-seeded (non-reproducible).
	Seed int64
	// DialFailProb is the probability that a dial is refused.
	DialFailProb float64
	// ResetProb is the per-write probability that the connection is
	// reset mid-stream.
	ResetProb float64
	// StallProb is the per-write probability of a transient stall of
	// StallFor before the bytes move.
	StallProb float64
	// StallFor is the stall duration; defaults to 20ms when StallProb is
	// set.
	StallFor time.Duration
}

// Fabric is the shared chaos state: site registry, active cuts, open
// connections and scripted timers. Safe for concurrent use.
type Fabric struct {
	cfg Config

	mu       sync.Mutex
	rng      *rand.Rand
	siteOf   map[string]string   // listen address -> site
	cutSites map[[2]string]bool  // directed (fromSite, toSite) cuts
	cutNodes map[string]bool     // fully isolated addresses
	conns    map[*faultConn]bool // open dialed connections
	timers   map[*time.Timer]bool
	closed   bool

	// injected counts fabricated faults per kind, so a chaos run's
	// metrics dump shows how much adversity the workload actually faced.
	injected map[string]*metrics.Counter
}

// NewFabric builds an empty fabric.
func NewFabric(cfg Config) *Fabric {
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	if cfg.StallProb > 0 && cfg.StallFor <= 0 {
		cfg.StallFor = 20 * time.Millisecond
	}
	reg := metrics.Default()
	injected := make(map[string]*metrics.Counter)
	for _, kind := range []string{
		kindDialCut, kindDialRefused, kindReset, kindStall, kindPartitionReset,
	} {
		injected[kind] = reg.Counter("faultnet_injected_total", "kind", kind)
	}
	return &Fabric{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(seed)),
		siteOf:   make(map[string]string),
		cutSites: make(map[[2]string]bool),
		cutNodes: make(map[string]bool),
		conns:    make(map[*faultConn]bool),
		timers:   make(map[*time.Timer]bool),
		injected: injected,
	}
}

// Injected-fault kinds, the label values of faultnet_injected_total.
const (
	kindDialCut        = "dial-cut"        // dial refused by a scripted cut
	kindDialRefused    = "dial-refused"    // stochastic dial refusal
	kindReset          = "reset"           // stochastic mid-stream reset
	kindStall          = "stall"           // transient write stall
	kindPartitionReset = "partition-reset" // established conn killed by a cut
)

// Register maps a listen address to a site (normally done by Listen; use
// this for services bound outside a fabric view).
func (f *Fabric) Register(addr, site string) {
	f.mu.Lock()
	f.siteOf[addr] = site
	f.mu.Unlock()
}

// Partition cuts traffic from one site to another (one direction): new
// dials crossing the cut are refused and established connections dialed
// across it are reset. An RPC connection needs both directions, so a
// one-way cut kills its streams; the asymmetry matters for *new* dials,
// modelling one-way reachability loss.
func (f *Fabric) Partition(fromSite, toSite string) {
	f.mu.Lock()
	f.cutSites[[2]string{fromSite, toSite}] = true
	//lint:ignore lockedio matchingLocked only collects matching conns in memory; the resets happen via kill after Unlock
	victims := f.matchingLocked(func(c *faultConn) bool {
		return c.fromSite == fromSite && c.toSite == toSite
	})
	f.mu.Unlock()
	kill(victims)
}

// PartitionBoth cuts a site pair in both directions.
func (f *Fabric) PartitionBoth(a, b string) {
	f.Partition(a, b)
	f.Partition(b, a)
}

// Heal removes a directed site cut.
func (f *Fabric) Heal(fromSite, toSite string) {
	f.mu.Lock()
	delete(f.cutSites, [2]string{fromSite, toSite})
	f.mu.Unlock()
}

// HealBoth removes both directions of a site cut.
func (f *Fabric) HealBoth(a, b string) {
	f.Heal(a, b)
	f.Heal(b, a)
}

// Isolate cuts one address off: dials to it are refused and its
// established connections are reset.
func (f *Fabric) Isolate(addr string) {
	f.mu.Lock()
	f.cutNodes[addr] = true
	//lint:ignore lockedio matchingLocked only collects matching conns in memory; the resets happen via kill after Unlock
	victims := f.matchingLocked(func(c *faultConn) bool { return c.raddr == addr })
	f.mu.Unlock()
	kill(victims)
}

// Restore lifts an Isolate.
func (f *Fabric) Restore(addr string) {
	f.mu.Lock()
	delete(f.cutNodes, addr)
	f.mu.Unlock()
}

// HealAll removes every scripted cut (site- and node-level).
func (f *Fabric) HealAll() {
	f.mu.Lock()
	f.cutSites = make(map[[2]string]bool)
	f.cutNodes = make(map[string]bool)
	f.mu.Unlock()
}

// Schedule arms step to run against the fabric after d — the scripting
// hook: chain Schedule calls to express "partition at t=100ms, heal at
// t=600ms". Close cancels pending steps.
func (f *Fabric) Schedule(d time.Duration, step func(*Fabric)) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	var t *time.Timer
	t = time.AfterFunc(d, func() {
		f.mu.Lock()
		closed := f.closed
		delete(f.timers, t)
		f.mu.Unlock()
		if !closed {
			step(f)
		}
	})
	f.timers[t] = true
	f.mu.Unlock()
}

// Close cancels scheduled steps and resets remaining chaos connections.
func (f *Fabric) Close() {
	f.mu.Lock()
	f.closed = true
	for t := range f.timers {
		t.Stop()
	}
	f.timers = make(map[*time.Timer]bool)
	//lint:ignore lockedio matchingLocked only collects matching conns in memory; the resets happen via kill after Unlock
	victims := f.matchingLocked(func(*faultConn) bool { return true })
	f.mu.Unlock()
	kill(victims)
}

// Cut reports whether fromSite→toSite is currently partitioned.
func (f *Fabric) Cut(fromSite, toSite string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cutSites[[2]string{fromSite, toSite}]
}

// matchingLocked collects open connections satisfying match. Callers hold mu.
func (f *Fabric) matchingLocked(match func(*faultConn) bool) []*faultConn {
	var out []*faultConn
	for c := range f.conns {
		if match(c) {
			out = append(out, c)
		}
	}
	return out
}

func kill(conns []*faultConn) {
	for _, c := range conns {
		c.f.injected[kindPartitionReset].Inc()
		c.breakWith(fmt.Errorf("%w: connection reset by partition", ErrInjected))
	}
}

// track registers an open dialed connection; forget removes it.
func (f *Fabric) track(c *faultConn) {
	f.mu.Lock()
	if !f.closed {
		f.conns[c] = true
	}
	f.mu.Unlock()
}

func (f *Fabric) forget(c *faultConn) {
	f.mu.Lock()
	delete(f.conns, c)
	f.mu.Unlock()
}

// roll draws one uniform [0,1) variate from the fabric's seeded PRNG.
func (f *Fabric) roll() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Float64()
}

// site resolves an address's site ("" when unregistered — only node-level
// cuts apply then).
func (f *Fabric) site(addr string) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.siteOf[addr]
}

// refused reports whether a dial from fromSite to addr crosses an active
// cut.
func (f *Fabric) refused(fromSite, addr string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cutNodes[addr] {
		return true
	}
	to := f.siteOf[addr]
	return f.cutSites[[2]string{fromSite, to}]
}

// Network is one site's chaos-shaped view of an inner fabric, satisfying
// transport.Network.
type Network struct {
	f     *Fabric
	site  string
	inner transport.Network
}

// NetworkFor returns the chaos view for services located at site.
func (f *Fabric) NetworkFor(site string, inner transport.Network) *Network {
	return &Network{f: f, site: site, inner: inner}
}

// Site returns the view's site name.
func (n *Network) Site() string { return n.site }

// Listen binds addr on the inner network and registers it at this view's
// site.
func (n *Network) Listen(addr string) (net.Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	n.f.Register(l.Addr().String(), n.site)
	return l, nil
}

// Dial connects to addr unless a scripted cut or an injected dial
// refusal stands in the way. The returned connection is subject to
// partition resets and the configured stochastic faults.
func (n *Network) Dial(ctx context.Context, addr string) (net.Conn, error) {
	if n.f.refused(n.site, addr) {
		n.f.injected[kindDialCut].Inc()
		return nil, fmt.Errorf("%w: dial %q: partitioned from %q", ErrInjected, addr, n.site)
	}
	if p := n.f.cfg.DialFailProb; p > 0 && n.f.roll() < p {
		n.f.injected[kindDialRefused].Inc()
		return nil, fmt.Errorf("%w: dial %q: connection refused", ErrInjected, addr)
	}
	conn, err := n.inner.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	c := &faultConn{
		Conn:     conn,
		f:        n.f,
		fromSite: n.site,
		raddr:    addr,
		toSite:   n.f.site(addr),
	}
	n.f.track(c)
	return c, nil
}

// faultConn wraps a dialed connection with injected failure modes. A
// broken connection stays broken: every subsequent Read/Write returns
// the injected error, like a real reset socket.
type faultConn struct {
	net.Conn
	f        *Fabric
	fromSite string
	toSite   string
	raddr    string

	mu     sync.Mutex
	broken error
}

// breakWith marks the connection dead and closes the underlying conn so
// blocked readers and the peer observe the reset.
func (c *faultConn) breakWith(err error) {
	c.mu.Lock()
	already := c.broken != nil
	if !already {
		c.broken = err
	}
	c.mu.Unlock()
	if !already {
		c.Conn.Close()
		c.f.forget(c)
	}
}

func (c *faultConn) brokenErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken
}

// Write applies stochastic faults before delegating.
func (c *faultConn) Write(p []byte) (int, error) {
	if err := c.brokenErr(); err != nil {
		return 0, err
	}
	cfg := c.f.cfg
	if cfg.ResetProb > 0 && c.f.roll() < cfg.ResetProb {
		c.f.injected[kindReset].Inc()
		err := fmt.Errorf("%w: connection reset mid-stream", ErrInjected)
		c.breakWith(err)
		return 0, err
	}
	if cfg.StallProb > 0 && c.f.roll() < cfg.StallProb {
		c.f.injected[kindStall].Inc()
		time.Sleep(cfg.StallFor)
	}
	return c.Conn.Write(p)
}

// Read delegates, surfacing the injected error once broken.
func (c *faultConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err != nil {
		if berr := c.brokenErr(); berr != nil {
			return n, berr
		}
	}
	return n, err
}

// Close implements net.Conn.
func (c *faultConn) Close() error {
	c.f.forget(c)
	return c.Conn.Close()
}
