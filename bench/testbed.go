package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"efdedup/internal/agent"
	"efdedup/internal/cloudstore"
	"efdedup/internal/kvstore"
	"efdedup/internal/netem"
	"efdedup/internal/transport"
)

const (
	cloudSite = "cloud"
	cloudAddr = "cloud-store"
)

// dialer is what kvstore.NewCluster and cloudstore.Dial take.
type dialer interface {
	Dial(ctx context.Context, addr string) (net.Conn, error)
}

// connStats counts what crossed a set of connections.
type connStats struct {
	reads, writes         atomic.Int64
	readBytes, writeBytes atomic.Int64
}

func (s *connStats) bytes() int64 { return s.readBytes.Load() + s.writeBytes.Load() }

// tap names the places a traced run watches: the dialers handed to
// the index coordinators and the cloud clients, and the listeners
// handed to the kv nodes and the cloud store.
type tap int

const (
	indexDial tap = iota
	cloudDial
	kvListen
	cloudListen
	taps
)

// serveSpan is the span name of the time a request spent inside the
// server behind a listen-side tap.
var serveSpan = [taps]string{kvListen: "kvstore.serve", cloudListen: "cloudstore.serve"}

// meters is the benchmark's view of the layer boundaries: every
// connection dialed or accepted through one is counted. A nil *meters
// (the untraced run) wraps nothing.
type meters struct {
	stats [taps]connStats

	mu    sync.Mutex
	conns []*meterConn
	// tr, once set, makes connections remember the last exchange they
	// carried so the staged driver can turn it into spans. It is set
	// after the concurrent warm-up, while read loops are running.
	tr atomic.Pointer[tracer]
}

// meterConn counts one connection's traffic and remembers its last
// request/response exchange: on a dialed connection from the first
// request byte written to the last response byte read; on an accepted
// one from the last request byte read to the first response byte
// written, which is the time the server spent on the request.
type meterConn struct {
	net.Conn
	ms       *meters
	at       tap
	accepted bool // at is a listen-side tap

	mu         sync.Mutex
	start, end time.Duration // the exchange; end == 0 while none is complete
	writing    bool          // accepted side: a response is being written
}

func (c *meterConn) Write(p []byte) (int, error) {
	if tr := c.ms.tr.Load(); tr != nil {
		c.mu.Lock()
		switch {
		case !c.accepted && c.start == 0:
			c.start = tr.now()
		case c.accepted && !c.writing:
			c.end, c.writing = tr.now(), true
		}
		c.mu.Unlock()
	}
	// Counted before the write: on a synchronous pipe the peer can read
	// this write and finish its call before Write returns here.
	c.ms.stats[c.at].writes.Add(1)
	c.ms.stats[c.at].writeBytes.Add(int64(len(p)))
	return c.Conn.Write(p)
}

func (c *meterConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.ms.stats[c.at].reads.Add(1)
	c.ms.stats[c.at].readBytes.Add(int64(n))
	if tr := c.ms.tr.Load(); tr != nil && n > 0 {
		c.mu.Lock()
		if c.accepted {
			c.start, c.writing = tr.now(), false
		} else {
			c.end = tr.now()
		}
		c.mu.Unlock()
	}
	return n, err
}

func (ms *meters) wrap(conn net.Conn, at tap) net.Conn {
	mc := &meterConn{Conn: conn, ms: ms, at: at, accepted: at == kvListen || at == cloudListen}
	ms.mu.Lock()
	ms.conns = append(ms.conns, mc)
	ms.mu.Unlock()
	return mc
}

// closeExchanges turns the traffic seen since the last call into spans
// under parent: one transport.exchange covering every dialed connection
// the call used (a fan-out's exchanges overlap, so they are one span),
// and under it one serve span per server that worked on a request. The
// staged driver calls it after each sequential call, so the traffic is
// that call's.
func (ms *meters) closeExchanges(parent, stream int) {
	tr := ms.tr.Load()
	ms.mu.Lock()
	conns := append([]*meterConn(nil), ms.conns...)
	ms.mu.Unlock()
	var exchange span
	var serves []span
	for _, c := range conns {
		c.mu.Lock()
		if c.end > c.start && c.start > 0 {
			if c.accepted {
				serves = append(serves, span{Stream: stream, Name: serveSpan[c.at], Start: c.start, End: c.end})
			} else {
				if exchange.Items == 0 || c.start < exchange.Start {
					exchange.Start = c.start
				}
				exchange.End = max(exchange.End, c.end)
				exchange.Items++
			}
		}
		c.start, c.end = 0, 0
		c.mu.Unlock()
	}
	if exchange.Items == 0 {
		return
	}
	exchange.Parent, exchange.Stream, exchange.Name = parent, stream, "transport.exchange"
	id := tr.add(exchange)
	for _, sv := range serves {
		sv.Parent = id
		tr.add(sv)
	}
}

type meterDialer struct {
	inner dialer
	ms    *meters
	at    tap
}

func (d meterDialer) Dial(ctx context.Context, addr string) (net.Conn, error) {
	conn, err := d.inner.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return d.ms.wrap(conn, d.at), nil
}

type meterListener struct {
	net.Listener
	ms *meters
	at tap
}

func (l meterListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.ms.wrap(conn, l.at), nil
}

func (ms *meters) dialer(at tap, d dialer) dialer {
	if ms == nil {
		return d
	}
	return meterDialer{inner: d, ms: ms, at: at}
}

func (ms *meters) listener(at tap, l net.Listener) net.Listener {
	if ms == nil {
		return l
	}
	return meterListener{Listener: l, ms: ms, at: at}
}

// testbed is one in-process deployment, assembled from the layers'
// public constructors: a cloud store, one kv node and one agent per
// edge node, one index coordinator per agent over its ring's nodes, all
// on a MemNetwork seen through a netem topology. With zero links the
// topology only counts bytes per site pair.
type testbed struct {
	sp      *spec
	dir     string
	topo    *netem.Topology
	cloud   *cloudstore.Server
	nodes   []*kvstore.Node
	indexes []*kvstore.Cluster
	clients []*cloudstore.Client
	agents  []*agent.Agent
}

func kvAddr(node int) string { return fmt.Sprintf("kv-n%d", node) }

// newTestbed builds and starts the deployment. dir is used (and must be
// empty or absent) only by workloads whose kv nodes keep a WAL.
func newTestbed(sp *spec, dir string, ms *meters) (_ *testbed, err error) {
	tb := &testbed{sp: sp, dir: dir, topo: netem.NewTopology(sp.edgeLink)}
	defer func() {
		if err != nil {
			tb.close()
		}
	}()
	if sp.durable {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("wal directory: %w", err)
		}
	}
	inner := transport.NewMemNetwork()
	for _, site := range sp.sites {
		tb.topo.SetSymmetricLink(site, cloudSite, sp.wanLink)
	}
	chunker := sp.chunker()

	// The cloud store is in memory on every workload: a disk-backed one
	// spends its time in fsync, whose latency on the sandbox's device
	// wandered twofold within minutes. Its file tier is an isolated row.
	if tb.cloud, err = cloudstore.NewServer(cloudstore.Config{Chunker: chunker}); err != nil {
		return nil, fmt.Errorf("cloud store: %w", err)
	}
	l, err := tb.topo.NetworkFor(cloudSite, inner).Listen(cloudAddr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", cloudAddr, err)
	}
	tb.cloud.Serve(ms.listener(cloudListen, l))

	for i, site := range sp.sites {
		var cfg kvstore.NodeConfig
		if sp.durable {
			// The default policy: group commit every 50 ms, snapshot
			// and truncate past 8 MiB of log.
			cfg.WALPath = filepath.Join(dir, kvAddr(i)+".wal")
		}
		node, err := kvstore.NewNode(cfg)
		if err != nil {
			return nil, fmt.Errorf("kv node %d: %w", i, err)
		}
		tb.nodes = append(tb.nodes, node)
		l, err := tb.topo.NetworkFor(site, inner).Listen(kvAddr(i))
		if err != nil {
			return nil, fmt.Errorf("listen %s: %w", kvAddr(i), err)
		}
		node.Serve(ms.listener(kvListen, l))
	}

	ringOf := make(map[int][]string)
	for _, ring := range sp.rings {
		var members []string
		for _, n := range ring {
			members = append(members, kvAddr(n))
		}
		for _, n := range ring {
			ringOf[n] = members
		}
	}
	for i, site := range sp.sites {
		view := tb.topo.NetworkFor(site, inner)
		client, err := cloudstore.Dial(context.Background(), ms.dialer(cloudDial, view), cloudAddr)
		if err != nil {
			return nil, fmt.Errorf("node %d dial cloud: %w", i, err)
		}
		tb.clients = append(tb.clients, client)
		idx, err := kvstore.NewCluster(kvstore.ClusterConfig{
			Members:           ringOf[i],
			ReplicationFactor: sp.gamma,
			LocalAddr:         kvAddr(i),
			Network:           ms.dialer(indexDial, view),
		})
		if err != nil {
			return nil, fmt.Errorf("node %d index: %w", i, err)
		}
		tb.indexes = append(tb.indexes, idx)
		// StrictRing: a ring failure must fail the stream (and the
		// run), not quietly turn into cloud-assisted lookups.
		a, err := agent.New(agent.Config{
			Name: fmt.Sprintf("n%d", i), Mode: agent.ModeRing, Chunker: chunker,
			Cloud: client, Index: idx, StrictRing: true,
		})
		if err != nil {
			return nil, fmt.Errorf("node %d agent: %w", i, err)
		}
		tb.agents = append(tb.agents, a)
	}
	return tb, nil
}

// close stops every service and removes the WALs.
func (tb *testbed) close() error {
	var errs []error
	for _, idx := range tb.indexes {
		errs = append(errs, idx.Close())
	}
	for _, c := range tb.clients {
		errs = append(errs, c.Close())
	}
	for _, n := range tb.nodes {
		errs = append(errs, n.Close())
	}
	if tb.cloud != nil {
		errs = append(errs, tb.cloud.Close())
	}
	if tb.sp.durable {
		errs = append(errs, os.RemoveAll(tb.dir))
	}
	return errors.Join(errs...)
}

// wanBytes and edgeBytes are the request-direction bytes the topology
// saw from edge sites to the cloud, and between distinct edge sites.
func (tb *testbed) wanBytes() (total int64) {
	for _, site := range distinct(tb.sp.sites) {
		total += tb.topo.BytesSent(site, cloudSite)
	}
	return total
}

func (tb *testbed) edgeBytes() (total int64) {
	sites := distinct(tb.sp.sites)
	for _, from := range sites {
		for _, to := range sites {
			if from != to {
				total += tb.topo.BytesSent(from, to)
			}
		}
	}
	return total
}

func distinct(xs []string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// lookupStats sums the coordinators' local/remote lookup counters.
func (tb *testbed) lookupStats() (local, remote int64) {
	for _, idx := range tb.indexes {
		l, r := idx.LookupStats()
		local, remote = local+l, remote+r
	}
	return local, remote
}

// runClients drives n calls closed-loop from the given number of client
// goroutines: each takes the next call, in order, when its previous one
// has returned.
func runClients(clients, n int, do func(i int) (bytes int64, err error)) (calls []call, wall time.Duration) {
	calls = make([]call, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				bytes, err := do(i)
				calls[i] = call{lat: time.Since(t0), done: time.Since(start), bytes: bytes, err: err}
			}
		}()
	}
	wg.Wait()
	return calls, time.Since(start)
}
