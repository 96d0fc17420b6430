package netem

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"efdedup/internal/transport"
)

// serveEcho accepts connections on l and echoes their bytes back.
func serveEcho(t *testing.T, l net.Listener) {
	t.Helper()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				io.Copy(conn, conn) //nolint:errcheck // test echo
			}()
		}
	}()
	t.Cleanup(func() { l.Close() })
}

// roundTrip writes msg and reads it back through an echo server.
func roundTrip(conn net.Conn, msg string) error {
	if _, err := conn.Write([]byte(msg)); err != nil {
		return err
	}
	buf := make([]byte, len(msg))
	conn.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	_, err := io.ReadFull(conn, buf)
	return err
}

func TestDialAndTalkThroughFabric(t *testing.T) {
	mem := transport.NewMemNetwork()
	f := NewTopology(Link{})
	ring := f.NetworkFor("ring", mem)
	edge := f.NetworkFor("edge", mem)

	l, err := ring.Listen("kv-0")
	if err != nil {
		t.Fatal(err)
	}
	serveEcho(t, l)

	conn, err := edge.Dial(context.Background(), "kv-0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := roundTrip(conn, "hello"); err != nil {
		t.Fatalf("round trip through a healthy network: %v", err)
	}
}

// TestPartitionRefusesNewDials: a one-way cut refuses dials across it but
// leaves the reverse direction and other sites untouched.
func TestPartitionRefusesNewDials(t *testing.T) {
	mem := transport.NewMemNetwork()
	f := NewTopology(Link{})
	ring := f.NetworkFor("ring", mem)
	edge := f.NetworkFor("edge", mem)
	cloud := f.NetworkFor("cloud", mem)

	for _, spec := range []struct {
		nw   *Network
		addr string
	}{{ring, "kv-0"}, {edge, "agent-0"}, {cloud, "cloud-0"}} {
		l, err := spec.nw.Listen(spec.addr)
		if err != nil {
			t.Fatal(err)
		}
		serveEcho(t, l)
	}

	f.Partition("edge", "ring")
	ctx := context.Background()
	if _, err := edge.Dial(ctx, "kv-0"); !errors.Is(err, ErrInjected) {
		t.Fatalf("dial across cut = %v, want ErrInjected", err)
	}
	// Reverse direction still works (one-way cut).
	if conn, err := ring.Dial(ctx, "agent-0"); err != nil {
		t.Fatalf("reverse dial failed under one-way cut: %v", err)
	} else {
		conn.Close()
	}
	// Unrelated site pair unaffected.
	if conn, err := edge.Dial(ctx, "cloud-0"); err != nil {
		t.Fatalf("edge→cloud dial failed: %v", err)
	} else {
		conn.Close()
	}

	f.Heal("edge", "ring")
	conn, err := edge.Dial(ctx, "kv-0")
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	conn.Close()
}

// TestPartitionResetsEstablishedConns: connections dialed across a pair
// die when the pair is cut mid-stream.
func TestPartitionResetsEstablishedConns(t *testing.T) {
	mem := transport.NewMemNetwork()
	f := NewTopology(Link{})
	ring := f.NetworkFor("ring", mem)
	edge := f.NetworkFor("edge", mem)

	l, err := ring.Listen("kv-0")
	if err != nil {
		t.Fatal(err)
	}
	serveEcho(t, l)

	conn, err := edge.Dial(context.Background(), "kv-0")
	if err != nil {
		t.Fatal(err)
	}
	if err := roundTrip(conn, "pre-cut"); err != nil {
		t.Fatal(err)
	}
	f.Partition("edge", "ring")
	if _, err := conn.Write([]byte("post-cut")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write on cut conn = %v, want ErrInjected", err)
	}
	// The error is sticky.
	if _, err := conn.Write([]byte("again")); !errors.Is(err, ErrInjected) {
		t.Fatalf("second write = %v, want sticky ErrInjected", err)
	}
}

// TestIsolateNode: node-level cuts refuse dials and reset existing
// connections regardless of site.
func TestIsolateNode(t *testing.T) {
	mem := transport.NewMemNetwork()
	f := NewTopology(Link{})
	ring := f.NetworkFor("ring", mem)

	for _, addr := range []string{"kv-0", "kv-1"} {
		l, err := ring.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		serveEcho(t, l)
	}
	ctx := context.Background()
	conn0, err := ring.Dial(ctx, "kv-0")
	if err != nil {
		t.Fatal(err)
	}
	f.Isolate("kv-0")
	if _, err := ring.Dial(ctx, "kv-0"); !errors.Is(err, ErrInjected) {
		t.Fatalf("dial to isolated node = %v, want ErrInjected", err)
	}
	if _, err := conn0.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write to isolated node = %v, want ErrInjected", err)
	}
	// Sibling node unaffected.
	if conn, err := ring.Dial(ctx, "kv-1"); err != nil {
		t.Fatalf("dial to healthy sibling: %v", err)
	} else {
		conn.Close()
	}
	f.Restore("kv-0")
	if conn, err := ring.Dial(ctx, "kv-0"); err != nil {
		t.Fatalf("dial after restore: %v", err)
	} else {
		conn.Close()
	}
}

// TestSeededDialRefusalsAreDeterministic: the same seed yields the same
// refusal pattern.
func TestSeededDialRefusalsAreDeterministic(t *testing.T) {
	pattern := func(seed int64) []bool {
		mem := transport.NewMemNetwork()
		f := NewTopology(Link{})
		f.SetFaults(Faults{Seed: seed, DialFailProb: 0.5})
		nw := f.NetworkFor("s", mem)
		l, err := nw.Listen("svc")
		if err != nil {
			t.Fatal(err)
		}
		serveEcho(t, l)
		out := make([]bool, 40)
		for i := range out {
			conn, err := nw.Dial(context.Background(), "svc")
			out[i] = err == nil
			if err == nil {
				conn.Close()
			} else if !errors.Is(err, ErrInjected) {
				t.Fatalf("dial %d: %v, want ErrInjected", i, err)
			}
		}
		return out
	}
	a, b := pattern(99), pattern(99)
	refusals := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded refusal pattern diverges at dial %d", i)
		}
		if !a[i] {
			refusals++
		}
	}
	if refusals == 0 || refusals == len(a) {
		t.Fatalf("refusals = %d/%d, want a mixture at p=0.5", refusals, len(a))
	}
}

// TestMidStreamResetInjection: with ResetProb=1 the first write dies with
// an injected reset.
func TestMidStreamResetInjection(t *testing.T) {
	mem := transport.NewMemNetwork()
	f := NewTopology(Link{})
	f.SetFaults(Faults{Seed: 5, ResetProb: 1})
	nw := f.NetworkFor("s", mem)
	l, err := nw.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	serveEcho(t, l)
	conn, err := nw.Dial(context.Background(), "svc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("doomed")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write = %v, want injected reset", err)
	}
}

// TestTransientStall: with StallProb=1 writes are delayed by StallFor but
// still succeed.
func TestTransientStall(t *testing.T) {
	mem := transport.NewMemNetwork()
	f := NewTopology(Link{})
	f.SetFaults(Faults{Seed: 5, StallProb: 1, StallFor: 50 * time.Millisecond})
	nw := f.NetworkFor("s", mem)
	l, err := nw.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	serveEcho(t, l)
	conn, err := nw.Dial(context.Background(), "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if err := roundTrip(conn, "slow"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("stalled write completed in %v, want ≥ 50ms", d)
	}
}

// TestScheduleScriptsPartitionAndHeal: the Schedule API cuts and heals on
// a timeline.
func TestScheduleScriptsPartitionAndHeal(t *testing.T) {
	mem := transport.NewMemNetwork()
	f := NewTopology(Link{})
	defer f.Close()
	ring := f.NetworkFor("ring", mem)
	edge := f.NetworkFor("edge", mem)
	l, err := ring.Listen("kv-0")
	if err != nil {
		t.Fatal(err)
	}
	serveEcho(t, l)

	f.Schedule(30*time.Millisecond, func(f *Topology) { f.PartitionBoth("edge", "ring") })
	f.Schedule(150*time.Millisecond, func(f *Topology) { f.HealAll() })

	ctx := context.Background()
	if _, err := edge.Dial(ctx, "kv-0"); err != nil {
		t.Fatalf("dial before scripted cut: %v", err)
	}
	time.Sleep(70 * time.Millisecond)
	if _, err := edge.Dial(ctx, "kv-0"); !errors.Is(err, ErrInjected) {
		t.Fatalf("dial during scripted cut = %v, want ErrInjected", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if conn, err := edge.Dial(ctx, "kv-0"); err == nil {
			conn.Close()
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("scripted heal never fired")
}

// TestComposesWithNetem: shaping and faults apply to one conn — the
// link delays delivery, a cut refuses new dials and resets the
// established conn even with bytes still queued, the queued write stays
// counted, and Close stops the delivery goroutine.
func TestComposesWithNetem(t *testing.T) {
	mem := transport.NewMemNetwork()
	topo := NewTopology(Link{Delay: 30 * time.Millisecond})
	topo.SetLink("edge", "far", Link{Delay: time.Hour})

	ringNW := topo.NetworkFor("ring", mem)
	edgeNW := topo.NetworkFor("edge", mem)
	farNW := topo.NetworkFor("far", mem)
	for _, spec := range []struct {
		nw   *Network
		addr string
	}{{ringNW, "kv-0"}, {farNW, "kv-far"}} {
		l, err := spec.nw.Listen(spec.addr)
		if err != nil {
			t.Fatal(err)
		}
		serveEcho(t, l)
	}

	ctx := context.Background()
	conn, err := edgeNW.Dial(ctx, "kv-0")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := roundTrip(conn, "shaped"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("link delay not applied: %v", d)
	}
	topo.Partition("edge", "ring")
	if _, err := edgeNW.Dial(ctx, "kv-0"); !errors.Is(err, ErrInjected) {
		t.Fatalf("partition not applied over a shaped link: %v", err)
	}
	conn.Close()

	far, err := edgeNW.Dial(ctx, "kv-far")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := far.Write([]byte("queued")); err != nil {
		t.Fatalf("write onto the 1h link: %v", err)
	}
	topo.Partition("edge", "far")
	if _, err := far.Write([]byte("after-cut")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write after partition = %v, want ErrInjected", err)
	}
	if n := topo.BytesSent("edge", "far"); n != int64(len("queued")) {
		t.Fatalf("BytesSent = %d, want the queued write's %d", n, len("queued"))
	}
	closed := make(chan struct{})
	go func() {
		far.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close still waiting on the delivery goroutine")
	}
}
