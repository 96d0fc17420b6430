package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// startEcho spins up a server with an "echo" and a "fail" method on the
// given network and returns its address plus a cleanup func.
func startEcho(t *testing.T, nw Network) (string, *Server) {
	t.Helper()
	s := NewServer()
	s.Handle("echo", func(body []byte) ([]byte, error) {
		return body, nil
	})
	s.Handle("fail", func(body []byte) ([]byte, error) {
		return nil, fmt.Errorf("boom: %s", body)
	})
	s.Handle("slow", func(body []byte) ([]byte, error) {
		time.Sleep(200 * time.Millisecond)
		return body, nil
	})
	l, err := nw.Listen("srv")
	if err != nil {
		// TCP networks need a port spec instead of a name.
		l, err = nw.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
	}
	go s.Serve(l) //nolint:errcheck // returns on Close
	t.Cleanup(func() { s.Close() })
	return l.Addr().String(), s
}

func dial(t *testing.T, nw Network, addr string) *Client {
	t.Helper()
	conn, err := nw.Dial(context.Background(), addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c := NewClient(conn)
	t.Cleanup(func() { c.Close() })
	return c
}

func networks(t *testing.T) map[string]Network {
	return map[string]Network{
		"mem": NewMemNetwork(),
		"tcp": TCPNetwork{},
	}
}

func TestCallRoundTrip(t *testing.T) {
	for name, nw := range networks(t) {
		t.Run(name, func(t *testing.T) {
			addr, _ := startEcho(t, nw)
			c := dial(t, nw, addr)
			got, err := c.Call(context.Background(), "echo", []byte("payload"))
			if err != nil {
				t.Fatalf("Call: %v", err)
			}
			if string(got) != "payload" {
				t.Fatalf("Call = %q, want %q", got, "payload")
			}
		})
	}
}

func TestCallRemoteError(t *testing.T) {
	nw := NewMemNetwork()
	addr, _ := startEcho(t, nw)
	c := dial(t, nw, addr)
	_, err := c.Call(context.Background(), "fail", []byte("reason"))
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("Call error = %v, want RemoteError", err)
	}
	if re.Method != "fail" || re.Msg != "boom: reason" {
		t.Fatalf("RemoteError = %+v", re)
	}
}

func TestCallUnknownMethod(t *testing.T) {
	nw := NewMemNetwork()
	addr, _ := startEcho(t, nw)
	c := dial(t, nw, addr)
	_, err := c.Call(context.Background(), "nope", nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("unknown method error = %v, want RemoteError", err)
	}
}

func TestConcurrentCallsMultiplex(t *testing.T) {
	nw := NewMemNetwork()
	addr, _ := startEcho(t, nw)
	c := dial(t, nw, addr)
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("msg-%d", i)
			got, err := c.Call(context.Background(), "echo", []byte(want))
			if err != nil {
				errs <- err
				return
			}
			if string(got) != want {
				errs <- fmt.Errorf("cross-talk: got %q want %q", got, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestCallContextCancel(t *testing.T) {
	nw := NewMemNetwork()
	addr, _ := startEcho(t, nw)
	c := dial(t, nw, addr)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Call(ctx, "slow", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Call error = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 150*time.Millisecond {
		t.Fatal("Call did not return promptly on cancellation")
	}
}

func TestCallAfterServerClose(t *testing.T) {
	nw := NewMemNetwork()
	addr, srv := startEcho(t, nw)
	c := dial(t, nw, addr)
	if _, err := c.Call(context.Background(), "echo", nil); err != nil {
		t.Fatalf("warm-up call: %v", err)
	}
	srv.Close()
	if _, err := c.Call(context.Background(), "echo", nil); err == nil {
		t.Fatal("call after server close succeeded")
	}
}

func TestClientCloseFailsPending(t *testing.T) {
	nw := NewMemNetwork()
	addr, _ := startEcho(t, nw)
	conn, err := nw.Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), "slow", nil)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("pending call succeeded after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call hung after Close")
	}
	if _, err := c.Call(context.Background(), "echo", nil); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("call after close = %v, want ErrClientClosed", err)
	}
}

func TestMemNetworkDialUnknownAddr(t *testing.T) {
	nw := NewMemNetwork()
	if _, err := nw.Dial(context.Background(), "missing"); err == nil {
		t.Fatal("dial to unknown address succeeded")
	}
}

func TestMemNetworkDuplicateListen(t *testing.T) {
	nw := NewMemNetwork()
	l, err := nw.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Listen("a"); err == nil {
		t.Fatal("duplicate listen succeeded")
	}
	l.Close()
	// Address is reusable after close.
	l2, err := nw.Listen("a")
	if err != nil {
		t.Fatalf("re-listen after close: %v", err)
	}
	l2.Close()
}

func TestMemListenerCloseUnblocksAccept(t *testing.T) {
	nw := NewMemNetwork()
	l, err := nw.Listen("x")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	l.Close()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Accept after close = %v, want net.ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Accept hung after Close")
	}
}

func TestFrameCodecProperty(t *testing.T) {
	f := func(id uint64, method string, body []byte) bool {
		if len(method) > 255 || len(method) == 0 {
			return true // skip inputs the encoder rejects by design
		}
		hdr, err := encodeRequest(nil, id, method)
		if err != nil {
			return false
		}
		gid, gm, gb, err := decodeRequest(framed(t, hdr, body))
		if err != nil {
			return false
		}
		return gid == id && gm == method && bytes.Equal(gb, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestResponseCodecProperty(t *testing.T) {
	f := func(id uint64, body []byte, errMsg string) bool {
		if errMsg != "" {
			body = nil // an error response carries no body
		}
		gid, gb, gerr, err := decodeResponse(framed(t, encodeResponse(nil, id, errMsg), body))
		if err != nil {
			return false
		}
		if gid != id || gerr != errMsg {
			return false
		}
		return bytes.Equal(gb, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// framed writes hdr (a header encoded with no room for the length
// prefix) and body as one frame and returns the frame's payload, as the
// peer's readFrame reads it.
func framed(t testing.TB, hdr, body []byte) []byte {
	t.Helper()
	var fw frameWriter
	var wire bytes.Buffer
	if err := fw.writeFrame(&wire, append(fw.header(), hdr...), body); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	p, err := readFrame(&wire)
	if err != nil || wire.Len() != 0 {
		t.Fatalf("readFrame: %v, %d bytes left over", err, wire.Len())
	}
	return p
}

// writeLog records each Write it gets as one entry.
type writeLog [][]byte

func (w *writeLog) Write(p []byte) (int, error) {
	*w = append(*w, bytes.Clone(p))
	return len(p), nil
}

// TestFrameGoldenBytes pins the frames writeFrame puts on the wire to the
// bytes of the encoding that built each frame in one buffer: the length
// prefix and the header are one write, a non-empty body a second.
func TestFrameGoldenBytes(t *testing.T) {
	const id = 0x0102030405060708
	var fw frameWriter
	req, err := encodeRequest(fw.header(), id, "kv.get")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		hdr, body []byte
		want      string // hex of the frame, length prefix included
	}{
		{"request", req, []byte("payload"), "00000017" + "01" + "0102030405060708" + "06" + "6b762e676574" + "7061796c6f6164"},
		{"response ok", encodeResponse(fw.header(), id, ""), []byte("ok"), "0000000c" + "02" + "0102030405060708" + "00" + "6f6b"},
		{"response error", encodeResponse(fw.header(), id, "boom"), nil, "00000012" + "02" + "0102030405060708" + "01" + "00000004" + "626f6f6d"},
		{"response empty", encodeResponse(fw.header(), 9, ""), nil, "0000000a" + "02" + "0000000000000009" + "00"},
	} {
		var w writeLog
		if err := fw.writeFrame(&w, bytes.Clone(tc.hdr), tc.body); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		frame := bytes.Join(w, nil)
		if got := fmt.Sprintf("%x", frame); got != tc.want {
			t.Errorf("%s: wire bytes %s, want %s", tc.name, got, tc.want)
		}
		writes := [][]byte{frame[:len(frame)-len(tc.body)]}
		if len(tc.body) > 0 {
			writes = append(writes, tc.body)
		}
		if !slices.EqualFunc(w, writes, bytes.Equal) {
			t.Errorf("%s: writes %x, want the header, then the body if there is one", tc.name, w)
		}
	}
}

// TestCallAllocs pins the allocations of one small echo call, both ends
// of the connection, at the count of the encoding that copied each body
// into a frame: writing the body by reference must not add any.
func TestCallAllocs(t *testing.T) {
	nw := NewMemNetwork()
	addr, _ := startEcho(t, nw)
	c := dial(t, nw, addr)
	body := make([]byte, 64)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := c.Call(ctx, "echo", body); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocations per call", allocs)
	if allocs > 15 {
		t.Errorf("a 64-byte echo call allocates %v times, want at most 15", allocs)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, _, _, err := decodeRequest([]byte{9, 9}); err == nil {
		t.Error("garbage request decoded")
	}
	if _, _, _, err := decodeResponse([]byte{1, 2, 3}); err == nil {
		t.Error("garbage response decoded")
	}
	// Truncated method.
	req, _ := encodeRequest(nil, 1, "abcdef")
	if _, _, _, err := decodeRequest(req[:11]); err == nil {
		t.Error("truncated request decoded")
	}
}

func TestLargePayload(t *testing.T) {
	nw := NewMemNetwork()
	addr, _ := startEcho(t, nw)
	c := dial(t, nw, addr)
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	got, err := c.Call(context.Background(), "echo", big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("large payload corrupted in transit")
	}
}
