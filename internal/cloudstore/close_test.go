package cloudstore

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"efdedup/internal/chunk"
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

// TestClientCloseIsTerminal: after Close, calls fail fast with
// transport.ErrClientClosed, dial nothing and leave no connection open.
func TestClientCloseIsTerminal(t *testing.T) {
	ctx := context.Background()
	nw := transport.NewMemNetwork()
	srv, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := nw.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	d := &countingDialer{MemNetwork: nw}
	cl, err := Dial(ctx, d, "cloud")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.FetchStats(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := cl.FetchStats(ctx); !errors.Is(err, transport.ErrClientClosed) {
		t.Fatalf("FetchStats after Close = %v, want ErrClientClosed", err)
	}
	if _, err := cl.BatchHas(ctx, []chunk.ID{chunk.Sum([]byte("x"))}); !errors.Is(err, transport.ErrClientClosed) {
		t.Fatalf("BatchHas after Close = %v, want ErrClientClosed", err)
	}
	if got := d.dials.Load(); got != 1 {
		t.Fatalf("dials = %d, want only the eager one at Dial", got)
	}
	if open := d.open.Load(); open != 0 {
		t.Fatalf("%d conns left open after Close", open)
	}
}
