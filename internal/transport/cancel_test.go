package transport

import (
	"context"
	"errors"
	"testing"
	"time"

	"efdedup/internal/retrypolicy"
)

// TestPeersCancelledCallKeepsConn: a caller that gives up while awaiting
// its reply leaves the shared connection, and the breaker, to the calls
// sharing it.
func TestPeersCancelledCallKeepsConn(t *testing.T) {
	nw := NewMemNetwork()
	release := make(chan struct{})
	s := NewServer()
	s.Handle("wait", func(b []byte) ([]byte, error) { <-release; return b, nil })
	s.Handle("echo", func(b []byte) ([]byte, error) { return b, nil })
	l, err := nw.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l) //nolint:errcheck // returns on Close
	t.Cleanup(func() { s.Close() })
	p := NewPeers(nw, retrypolicy.Policy{MaxAttempts: 1}, retrypolicy.BreakerConfig{FailureThreshold: 1}, nil)
	t.Cleanup(func() { p.Close() })

	ctx := context.Background()
	if _, err := p.Call(ctx, "a", "echo", nil); err != nil {
		t.Fatal(err)
	}
	cl := p.cached("a")
	waitCtx, cancel := context.WithCancel(ctx)
	errc := make(chan error, 1)
	go func() {
		_, err := p.Call(waitCtx, "a", "wait", nil)
		errc <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		cl.mu.Lock()
		inFlight := len(cl.pending)
		cl.mu.Unlock()
		if inFlight > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the wait call never went out")
		}
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Call = %v, want context.Canceled", err)
	}
	close(release)
	if p.cached("a") != cl {
		t.Fatal("a cancelled caller dropped the shared connection")
	}
	if _, err := p.Call(ctx, "a", "echo", nil); err != nil {
		t.Fatalf("Call beside the cancelled one: %v", err)
	}
	if st := p.Breaker("a").State(); st != retrypolicy.Closed {
		t.Fatalf("breaker = %v after a caller gave up, want closed", st)
	}
}
