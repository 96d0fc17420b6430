package main

import (
	"testing"

	"efdedup/internal/transport"
)

type closeRecorder struct{ closed bool }

func (c *closeRecorder) Close() error { c.closed = true; return nil }

// A failed bind is the daemon's exit path: the node (and with it the
// WAL and snapshot timer) must be released, not leaked.
func TestListenFailureClosesNode(t *testing.T) {
	m := transport.NewMemNetwork()
	if _, err := m.Listen("busy"); err != nil {
		t.Fatalf("pre-occupy address: %v", err)
	}
	rec := &closeRecorder{}
	if _, err := listenOrClose(m, "busy", rec); err == nil {
		t.Fatal("expected an error listening on an occupied address")
	}
	if !rec.closed {
		t.Fatal("owner was not closed after the listen failure")
	}
}

func TestListenSuccessKeepsNodeOpen(t *testing.T) {
	m := transport.NewMemNetwork()
	rec := &closeRecorder{}
	l, err := listenOrClose(m, "free", rec)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	if rec.closed {
		t.Fatal("owner was closed on a successful listen")
	}
}
