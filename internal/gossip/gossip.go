// Package gossip implements heartbeat anti-entropy membership — the role
// Cassandra's gossiper plays for the paper's D2-ring key-value store.
//
// Every node keeps a table mapping peer address → (heartbeat counter,
// local last-update time). Each interval a node increments its own
// heartbeat and exchanges tables with one random live peer (push-pull);
// merged entries keep the highest heartbeat. A peer whose heartbeat has
// not advanced within SuspectAfter is Suspect, within DeadAfter is Dead;
// dead entries are eventually forgotten. The protocol needs no central
// coordinator, spreads membership in O(log N) rounds, and keeps working
// through node failures and partitions — matching the paper's claim that
// ring membership changes are "a seamless operation".
package gossip

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"efdedup/internal/metrics"
	"efdedup/internal/retrypolicy"
	"efdedup/internal/transport"
)

// methodExchange is the push-pull RPC.
const methodExchange = "gossip.exchange"

// ErrConfig marks invalid gossip node assembly: caller mistakes, never
// transient.
var ErrConfig = errors.New("gossip: invalid configuration")

// ErrProto marks malformed exchange payloads: a peer (or the wire)
// produced bytes that do not parse as a heartbeat table.
var ErrProto = errors.New("gossip: protocol error")

// Status of a peer as judged by the local failure detector.
type Status int

// Peer liveness states.
const (
	Alive Status = iota + 1
	Suspect
	Dead
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Member is one row of the membership view.
type Member struct {
	// Addr is the peer's gossip address.
	Addr string
	// Heartbeat is the highest counter seen for the peer.
	Heartbeat uint64
	// Status is the local liveness judgement.
	Status Status
}

// Config assembles a gossip node.
type Config struct {
	// Addr is this node's gossip listen address.
	Addr string
	// Network provides connectivity.
	Network transport.Network
	// Seeds are peers contacted on startup (any subset suffices; the
	// rest is learned).
	Seeds []string
	// Interval between gossip rounds; defaults to 200 ms.
	Interval time.Duration
	// SuspectAfter and DeadAfter are how long a peer's heartbeat may
	// stall before it is suspected / declared dead. Defaults: 5 and 15
	// intervals.
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	// Seed seeds peer selection (0 = time-based).
	Seed int64
}

type entry struct {
	heartbeat uint64
	updated   time.Time
}

// Node is a running gossiper.
type Node struct {
	cfg Config

	mu    sync.Mutex
	table map[string]entry

	server   *transport.Server
	listener net.Listener
	peers    *transport.Peers
	rng      *rand.Rand

	rounds        *metrics.Counter
	exchangeFails *metrics.Counter
	merges        *metrics.Counter

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// Start launches a gossip node: it binds the address, merges the seed
// list and begins gossiping.
func Start(cfg Config) (*Node, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("%w: empty address", ErrConfig)
	}
	if cfg.Network == nil {
		return nil, fmt.Errorf("%w: nil network", ErrConfig)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 200 * time.Millisecond
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 5 * cfg.Interval
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 15 * cfg.Interval
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	n := &Node{
		cfg:   cfg,
		table: map[string]entry{cfg.Addr: {heartbeat: 1, updated: time.Now()}},
		// One exchange attempt per round, bounded by the interval. The
		// per-peer breakers keep rounds from burning on a downed peer:
		// while a breaker is open the peer is skipped during target
		// selection, then probed again after a few intervals.
		peers: transport.NewPeers(cfg.Network,
			retrypolicy.Policy{MaxAttempts: 1, AttemptTimeout: cfg.Interval},
			retrypolicy.BreakerConfig{FailureThreshold: 3, OpenFor: 4 * cfg.Interval}, nil),
		rng:  rand.New(rand.NewSource(seed)),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	reg := metrics.Default()
	n.rounds = reg.Counter("gossip_rounds_total", "addr", cfg.Addr)
	n.exchangeFails = reg.Counter("gossip_exchange_failures_total", "addr", cfg.Addr)
	n.merges = reg.Counter("gossip_merges_total", "addr", cfg.Addr)
	reg.GaugeFunc("gossip_alive_peers", func() float64 {
		return float64(len(n.Alive()))
	}, "addr", cfg.Addr)
	for _, s := range cfg.Seeds {
		if s != cfg.Addr {
			n.table[s] = entry{heartbeat: 0, updated: time.Now()}
		}
	}
	n.server = transport.NewServer()
	n.server.Handle(methodExchange, n.handleExchange)
	l, err := cfg.Network.Listen(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("gossip: listen %s: %w", cfg.Addr, err)
	}
	n.listener = l
	go n.server.Serve(l) //nolint:errcheck // returns on Close
	go n.loop()
	return n, nil
}

// Stop shuts the gossiper down. It is idempotent.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		close(n.stop)
		<-n.done
		n.server.Close()
		n.peers.Close()
	})
}

// Addr returns the node's gossip address.
func (n *Node) Addr() string { return n.cfg.Addr }

// Members returns the current view, sorted by address.
func (n *Node) Members() []Member {
	now := time.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Member, 0, len(n.table))
	for addr, e := range n.table {
		out = append(out, Member{Addr: addr, Heartbeat: e.heartbeat, Status: n.statusLocked(addr, e, now)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Alive returns the addresses currently judged alive (including self).
func (n *Node) Alive() []string {
	var out []string
	for _, m := range n.Members() {
		if m.Status == Alive {
			out = append(out, m.Addr)
		}
	}
	return out
}

// IsAlive reports the local judgement of one address.
func (n *Node) IsAlive(addr string) bool {
	now := time.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	e, ok := n.table[addr]
	return ok && n.statusLocked(addr, e, now) == Alive
}

func (n *Node) statusLocked(addr string, e entry, now time.Time) Status {
	if addr == n.cfg.Addr {
		return Alive
	}
	age := now.Sub(e.updated)
	switch {
	case e.heartbeat == 0 && age > n.cfg.SuspectAfter:
		// Seed we never heard from.
		return Suspect
	case age > n.cfg.DeadAfter:
		return Dead
	case age > n.cfg.SuspectAfter:
		return Suspect
	default:
		return Alive
	}
}

// loop is the gossip round driver.
func (n *Node) loop() {
	defer close(n.done)
	ticker := time.NewTicker(n.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			n.round()
		case <-n.stop:
			return
		}
	}
}

// round bumps our heartbeat and push-pulls with one random peer.
func (n *Node) round() {
	n.rounds.Inc()
	n.mu.Lock()
	self := n.table[n.cfg.Addr]
	self.heartbeat++
	self.updated = time.Now()
	n.table[n.cfg.Addr] = self

	// Candidate peers: everyone not judged dead, excluding self and
	// peers behind an open breaker (they rejoin the pool once the
	// breaker's cool-down makes it half-open).
	now := time.Now()
	var peers []string
	for addr, e := range n.table {
		if addr == n.cfg.Addr {
			continue
		}
		if n.statusLocked(addr, e, now) != Dead && n.peers.Breaker(addr).State() != retrypolicy.Open {
			peers = append(peers, addr)
		}
	}
	sort.Strings(peers) // deterministic order under a fixed rng seed
	n.mu.Unlock()
	if len(peers) == 0 {
		return
	}
	target := peers[n.rng.Intn(len(peers))]

	resp, err := n.peers.Call(context.Background(), target, methodExchange, n.encodeTable())
	if err != nil {
		n.exchangeFails.Inc()
		return // the failure detector handles persistent silence
	}
	n.mergeTable(resp)
}

// handleExchange merges the caller's table and answers with ours. A
// malformed table is rejected outright — answering normally would ack
// a payload we dropped on the floor.
func (n *Node) handleExchange(body []byte) ([]byte, error) {
	if err := n.mergeTable(body); err != nil {
		return nil, err
	}
	return n.encodeTable(), nil
}

// encodeTable serializes addr→heartbeat pairs.
func (n *Node) encodeTable() []byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := binary.BigEndian.AppendUint32(nil, uint32(len(n.table)))
	for addr, e := range n.table {
		out = binary.BigEndian.AppendUint32(out, uint32(len(addr)))
		out = append(out, addr...)
		out = binary.BigEndian.AppendUint64(out, e.heartbeat)
	}
	return out
}

// tableEntry is one decoded (address, heartbeat) pair.
type tableEntry struct {
	addr      string
	heartbeat uint64
}

// decodeTable parses a serialized table: u32 count, then per entry a
// u32 address length, the address bytes and a u64 heartbeat. Every
// size is validated in 64-bit arithmetic before use — the old 32-bit
// comparison wrapped for address lengths near 2^32 and panicked on the
// following slice — and truncated or trailing input is a protocol
// error rather than a silently dropped suffix.
func decodeTable(src []byte) ([]tableEntry, error) {
	if len(src) < 4 {
		return nil, fmt.Errorf("%w: table of %d bytes lacks a count", ErrProto, len(src))
	}
	count := binary.BigEndian.Uint32(src)
	src = src[4:]
	if uint64(count) > uint64(len(src))/12 {
		return nil, fmt.Errorf("%w: count %d exceeds what %d bytes can hold", ErrProto, count, len(src))
	}
	entries := make([]tableEntry, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(src) < 4 {
			return nil, fmt.Errorf("%w: entry %d lacks an address length", ErrProto, i)
		}
		al := uint64(binary.BigEndian.Uint32(src))
		if uint64(len(src)) < 4+al+8 {
			return nil, fmt.Errorf("%w: entry %d of %d bytes exceeds remaining %d", ErrProto, i, 12+al, len(src))
		}
		addr := string(src[4 : 4+al])
		hb := binary.BigEndian.Uint64(src[4+al:])
		src = src[4+al+8:]
		entries = append(entries, tableEntry{addr: addr, heartbeat: hb})
	}
	if len(src) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %d entries", ErrProto, len(src), count)
	}
	return entries, nil
}

// mergeTable folds a received table into ours: higher heartbeats win and
// refresh the local timestamp. Malformed payloads are rejected whole —
// a partial merge would make convergence depend on where the
// corruption sits.
func (n *Node) mergeTable(body []byte) error {
	entries, err := decodeTable(body)
	if err != nil {
		return err
	}
	now := time.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, te := range entries {
		if te.addr == n.cfg.Addr {
			continue // we are the authority on ourselves
		}
		e, ok := n.table[te.addr]
		if !ok || te.heartbeat > e.heartbeat {
			n.table[te.addr] = entry{heartbeat: te.heartbeat, updated: now}
			n.merges.Inc()
		}
	}
	return nil
}
