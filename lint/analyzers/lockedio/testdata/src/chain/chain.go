// Package chain exercises held-lock I/O detection across calls.
package chain

import (
	"net"
	"sync"
)

type Store struct {
	mu   sync.Mutex
	conn net.Conn
	seq  int
}

// send performs direct net.Conn I/O — one hop from any caller.
func (s *Store) send(b []byte) error {
	_, err := s.conn.Write(b)
	return err
}

// relay reaches I/O two hops deep.
func (s *Store) relay(b []byte) error {
	return s.send(b)
}

// bump touches only memory.
func (s *Store) bump() {
	s.seq++
}

// Flush calls a directly-dialing helper while holding the mutex.
func (s *Store) Flush(b []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.send(b) // want `mutex s\.mu \(locked at chain\.go:\d+\) held across call to s\.send, which reaches net\.Conn\.Write via \(\*chain\.Store\)\.send`
}

// Forward reaches the conn through a two-call chain; the diagnostic
// names the whole chain.
func (s *Store) Forward(b []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.relay(b) // want `held across call to s\.relay, which reaches net\.Conn\.Write via \(\*chain\.Store\)\.relay → \(\*chain\.Store\)\.send`
}

// Bump only calls memory-bound helpers: silent.
func (s *Store) Bump() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bump()
}

// AfterUnlock calls the I/O helper after releasing the lock: silent.
func (s *Store) AfterUnlock(b []byte) error {
	s.mu.Lock()
	s.seq++
	s.mu.Unlock()
	return s.send(b)
}

// Async spawns the I/O helper in a goroutine: it does not run under
// the caller's lock, so it stays silent.
func (s *Store) Async(b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go s.send(b)
}

// Direct I/O under a lock is reported once, as direct: the summary
// classifies the call site as I/O, not as a call.
func (s *Store) Direct(b []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.conn.Write(b) // want `^net\.Conn\.Write while s\.mu is held`
	return err
}
