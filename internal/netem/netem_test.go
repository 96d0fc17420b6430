package netem

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"efdedup/internal/transport"
)

// pipePair returns a connected pipe whose writer side is wrapped in link.
func pipePair(link Link) (shaped *conn, peer net.Conn) {
	a, b := net.Pipe()
	return NewTopology(link).shape(a, "a", "b", "b"), b
}

func TestShapeDelaysDelivery(t *testing.T) {
	const delay = 60 * time.Millisecond
	shaped, peer := pipePair(Link{Delay: delay})
	defer shaped.Close()
	defer peer.Close()

	start := time.Now()
	go shaped.Write([]byte("ping")) //nolint:errcheck

	buf := make([]byte, 4)
	if _, err := io.ReadFull(peer, buf); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < delay {
		t.Fatalf("delivery after %v, want >= %v", elapsed, delay)
	}
	if elapsed > 10*delay {
		t.Fatalf("delivery took %v, far beyond the configured %v", elapsed, delay)
	}
}

func TestShapeBandwidthSerializes(t *testing.T) {
	// 100 KiB at 1 MiB/s should take about 100 ms.
	const size = 100 * 1024
	link := Link{Bandwidth: 1 << 20}
	shaped, peer := pipePair(link)
	defer shaped.Close()
	defer peer.Close()

	payload := make([]byte, size)
	start := time.Now()
	go func() {
		shaped.Write(payload) //nolint:errcheck
	}()
	got := make([]byte, size)
	if _, err := io.ReadFull(peer, got); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 80*time.Millisecond {
		t.Fatalf("transfer finished in %v, faster than the 1 MiB/s link allows", elapsed)
	}
}

func TestShapePreservesContentAndOrder(t *testing.T) {
	shaped, peer := pipePair(Link{Delay: time.Millisecond})
	defer shaped.Close()
	defer peer.Close()

	var want bytes.Buffer
	go func() {
		for i := 0; i < 20; i++ {
			msg := bytes.Repeat([]byte{byte(i)}, 50)
			shaped.Write(msg) //nolint:errcheck
		}
	}()
	for i := 0; i < 20; i++ {
		want.Write(bytes.Repeat([]byte{byte(i)}, 50))
	}
	got := make([]byte, want.Len())
	if _, err := io.ReadFull(peer, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("shaped stream reordered or corrupted data")
	}
}

func TestShapeZeroLinkPassThrough(t *testing.T) {
	s, peer := pipePair(Link{})
	defer peer.Close()
	defer s.Close()
	if s.queue != nil {
		t.Fatal("zero link started a delivery queue")
	}
	go s.Write([]byte("hi")) //nolint:errcheck
	buf := make([]byte, 2)
	if _, err := io.ReadFull(peer, buf); err != nil || string(buf) != "hi" {
		t.Fatalf("read %q, %v; want the write passed through", buf, err)
	}
}

// TestShapedWriteAfterCloseFails: every write after Close fails with
// net.ErrClosed, shaped link or not — none may report success and drop
// the bytes.
func TestShapedWriteAfterCloseFails(t *testing.T) {
	for _, link := range []Link{{Delay: time.Hour}, {}} {
		shaped, peer := pipePair(link)
		shaped.Close()
		for i := 0; i < 100; i++ {
			if n, err := shaped.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
				t.Fatalf("link %+v: write %d after Close = %d, %v; want net.ErrClosed", link, i, n, err)
			}
		}
		peer.Close()
	}
}

func TestShapedCloseUnblocksWriters(t *testing.T) {
	shaped, peer := pipePair(Link{Delay: time.Hour}) // never delivers
	defer peer.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Fill the queue until Write blocks, then expect ErrClosed.
		for i := 0; i < shapedQueueLen+10; i++ {
			if _, err := shaped.Write([]byte("x")); err != nil {
				return
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	shaped.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("writer still blocked after Close")
	}
}

func TestTopologyLinkLookup(t *testing.T) {
	topo := NewTopology(Link{Delay: 10 * time.Millisecond})
	topo.SetSymmetricLink("edgeA", "cloud", Link{Delay: 25 * time.Millisecond})

	if l := topo.LinkBetween("edgeA", "cloud"); l.Delay != 25*time.Millisecond {
		t.Errorf("edgeA→cloud delay = %v, want 25ms", l.Delay)
	}
	if l := topo.LinkBetween("cloud", "edgeA"); l.Delay != 25*time.Millisecond {
		t.Errorf("cloud→edgeA delay = %v, want 25ms", l.Delay)
	}
	// Unspecified inter-site pair falls back.
	if l := topo.LinkBetween("edgeA", "edgeB"); l.Delay != 10*time.Millisecond {
		t.Errorf("fallback delay = %v, want 10ms", l.Delay)
	}
	// Intra-site with no explicit link is unshaped.
	if l := topo.LinkBetween("edgeA", "edgeA"); l.Delay != 0 {
		t.Errorf("intra-site delay = %v, want 0", l.Delay)
	}
}

func TestTopologySiteRegistration(t *testing.T) {
	topo := NewTopology(Link{})
	l, err := topo.NetworkFor("siteX", transport.NewMemNetwork()).Listen("addr1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s, err := topo.Site("addr1")
	if err != nil || s != "siteX" {
		t.Fatalf("Site = %q, %v", s, err)
	}
	if _, err := topo.Site("nope"); err == nil {
		t.Fatal("unknown address resolved")
	}
}

func TestNetworkForShapesDials(t *testing.T) {
	mem := transport.NewMemNetwork()
	topo := NewTopology(Link{})
	topo.SetLink("edge", "cloud", Link{Delay: 50 * time.Millisecond})

	cloudNet := topo.NetworkFor("cloud", mem)
	edgeNet := topo.NetworkFor("edge", mem)

	l, err := cloudNet.Listen("cloud-svc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := transport.NewServer()
	srv.Handle("ping", func(b []byte) ([]byte, error) { return b, nil })
	go srv.Serve(l) //nolint:errcheck
	defer srv.Close()

	conn, err := edgeNet.Dial(context.Background(), "cloud-svc")
	if err != nil {
		t.Fatal(err)
	}
	client := transport.NewClient(conn)
	defer client.Close()

	start := time.Now()
	if _, err := client.Call(context.Background(), "ping", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt < 50*time.Millisecond {
		t.Fatalf("call RTT %v, want >= 50ms link delay", rtt)
	}

	if n := topo.BytesSent("edge", "cloud"); n == 0 {
		t.Error("no bytes counted on edge→cloud link")
	}
	if n := topo.TotalInterSiteBytes(); n == 0 {
		t.Error("TotalInterSiteBytes = 0")
	}
	topo.ResetCounters()
	if n := topo.TotalInterSiteBytes(); n != 0 {
		t.Errorf("counters not reset: %d", n)
	}
}

func TestNetworkDialUnknownSite(t *testing.T) {
	mem := transport.NewMemNetwork()
	topo := NewTopology(Link{})
	nw := topo.NetworkFor("edge", mem)
	if _, err := nw.Dial(context.Background(), "unregistered"); err == nil {
		t.Fatal("dial to unregistered address succeeded")
	}
}

func TestIntraSiteDialUnshapedButCounted(t *testing.T) {
	mem := transport.NewMemNetwork()
	topo := NewTopology(Link{Delay: time.Hour}) // fallback would hang if applied
	nw := topo.NetworkFor("edge", mem)

	l, err := nw.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := transport.NewServer()
	srv.Handle("ping", func(b []byte) ([]byte, error) { return b, nil })
	go srv.Serve(l) //nolint:errcheck
	defer srv.Close()

	conn, err := nw.Dial(context.Background(), "svc")
	if err != nil {
		t.Fatal(err)
	}
	client := transport.NewClient(conn)
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := client.Call(ctx, "ping", nil); err != nil {
		t.Fatalf("intra-site call: %v", err)
	}
	if n := topo.BytesSent("edge", "edge"); n == 0 {
		t.Error("intra-site traffic not counted")
	}
	if n := topo.TotalInterSiteBytes(); n != 0 {
		t.Errorf("intra-site traffic counted as inter-site: %d", n)
	}
}
