package kvstore

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"efdedup/internal/retrypolicy"
	"efdedup/internal/transport"
)

// countingDialer counts the conns it dials and how many are still open.
type countingDialer struct {
	*transport.MemNetwork
	dials, open atomic.Int64
}

func (d *countingDialer) Dial(ctx context.Context, addr string) (net.Conn, error) {
	conn, err := d.MemNetwork.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	d.dials.Add(1)
	d.open.Add(1)
	return &countedConn{Conn: conn, d: d}, nil
}

type countedConn struct {
	net.Conn
	d    *countingDialer
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.d.open.Add(-1) })
	return c.Conn.Close()
}

// TestClusterCloseIsTerminal: after Close, lookups and writes fail fast
// with transport.ErrClientClosed. They dial nothing, leave no connection
// open and leave every breaker closed.
func TestClusterCloseIsTerminal(t *testing.T) {
	ctx := context.Background()
	nw := transport.NewMemNetwork()
	d := &countingDialer{MemNetwork: nw}
	c, err := NewCluster(ClusterConfig{
		Members:           testRing(t, nw, 2),
		ReplicationFactor: 2,
		Network:           d,
		Breaker:           retrypolicy.BreakerConfig{FailureThreshold: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := lookupKeys(8)
	if _, err := c.BatchHas(ctx, keys); err != nil {
		t.Fatal(err)
	}
	dials := d.dials.Load()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := c.BatchHas(ctx, keys); !errors.Is(err, transport.ErrClientClosed) {
		t.Fatalf("BatchHas after Close = %v, want ErrClientClosed", err)
	}
	if err := c.BatchPut(ctx, keys, keys); !errors.Is(err, transport.ErrClientClosed) {
		t.Fatalf("BatchPut after Close = %v, want ErrClientClosed", err)
	}
	if got := d.dials.Load(); got != dials {
		t.Fatalf("calls after Close dialed %d new conns", got-dials)
	}
	if open := d.open.Load(); open != 0 {
		t.Fatalf("%d conns left open after Close", open)
	}
	for addr, st := range c.BreakerStates() {
		if st != retrypolicy.Closed {
			t.Fatalf("breaker of %s = %v after Close, want closed", addr, st)
		}
	}
}
