// Fixtures for the resleak analyzer: acquisitions must reach Close on
// every path; returning/storing/passing the value transfers the
// obligation; the err != nil arm of the acquisition is exempt.
package resleak

import (
	"errors"
	"net"
	"os"

	"resleak/reclog"
)

var errBad = errors.New("bad")

func work() error { return nil }

func consume(f *os.File) {}

// --- positives -------------------------------------------------------

// The plain leak: no Close anywhere.
func leakPlain() error {
	f, err := os.Open("data") // want `os\.Open result is not closed on every path`
	if err != nil {
		return err
	}
	_ = f.Name()
	return nil
}

// The PR-bug shape: an early error return between the acquisition and
// the defer registration leaks — the defer only covers returns after
// it.
func leakOnEarlyReturn(ok bool) error {
	f, err := os.Open("data") // want `os\.Open result is not closed on every path`
	if err != nil {
		return err
	}
	if !ok {
		return errBad // leaves f open: the defer below is not registered yet
	}
	defer f.Close()
	return work()
}

// One arm closes, the other forgets.
func leakOneArm(ok bool) error {
	c, err := net.Dial("tcp", "edge:7070") // want `net\.Dial result is not closed on every path`
	if err != nil {
		return err
	}
	if ok {
		c.Close()
		return nil
	}
	return errBad
}

// A Dial method on a module type (the transport.Network shape) is
// tracked like net.Dial.
type network struct{}

type conn struct{}

func (*conn) Close() error { return nil }

func (network) Dial(addr string) (*conn, error) { return &conn{}, nil }

func (*conn) ping() {}

func leakCustomDial(n network) error {
	c, err := n.Dial("edge:7070") // want `resleak\.Dial result is not closed on every path`
	if err != nil {
		return err
	}
	c.ping()
	return work()
}

// WAL-open shape.
type wal struct{}

func (*wal) Close() error { return nil }
func (*wal) replay()      {}

func OpenWAL(path string) (*wal, error) { return &wal{}, nil }

func leakWAL(path string) error {
	w, err := OpenWAL(path) // want `resleak\.OpenWAL result is not closed on every path`
	if err != nil {
		return err
	}
	w.replay()
	return nil
}

// Record-log shape: the early return forgets the log it opened.
func leakLog(path string) error {
	l, _, err := reclog.Open(path) // want `reclog\.Open result is not closed on every path`
	if err != nil {
		return err // exempt: the error is the last of three results
	}
	if err := l.Sync(); err != nil {
		return err
	}
	return l.Close()
}

// A leak inside a function literal is charged to the literal.
func leakInsideFuncLit() func() error {
	return func() error {
		f, err := os.Open("data") // want `os\.Open result is not closed on every path`
		if err != nil {
			return err
		}
		_ = f.Name()
		return work()
	}
}

// --- negatives -------------------------------------------------------

// The idiomatic shape: err check, then defer Close.
func closedByDefer() error {
	f, err := os.Open("data")
	if err != nil {
		return err
	}
	defer f.Close()
	if err := work(); err != nil {
		return err
	}
	return nil
}

// Explicit Close on every arm.
func closedOnBothArms(ok bool) error {
	f, err := os.Open("data")
	if err != nil {
		return err
	}
	if ok {
		f.Close()
		return nil
	}
	f.Close()
	return errBad
}

// Returning the resource transfers the obligation to the caller.
func escapeReturn() (*os.File, error) {
	f, err := os.Open("data")
	return f, err
}

// Storing the resource into a field transfers ownership.
type holder struct{ f *os.File }

func escapeStore(h *holder) error {
	f, err := os.Open("data")
	if err != nil {
		return err
	}
	h.f = f
	return nil
}

// Passing the resource to a call transfers ownership.
func escapeArg() error {
	f, err := os.Open("data")
	if err != nil {
		return err
	}
	consume(f)
	return nil
}

// Capture by a goroutine's literal transfers ownership.
func escapeGoroutine() error {
	f, err := os.Open("data")
	if err != nil {
		return err
	}
	go func() {
		f.Close()
	}()
	return nil
}

// The res == nil arm has nothing to close.
func nilGuard() {
	c, _ := net.Dial("tcp", "edge:7070")
	if c == nil {
		return
	}
	c.Close()
}

// Reusing the err variable for a later, untracked call must not let
// the later nil-check absolve the earlier resource — but closing on
// that arm keeps this one clean.
func errReuseClosed(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = work()
	if err != nil {
		f.Close()
		return err
	}
	f.Close()
	return nil
}

// os.IsNotExist(err) is only true for a non-nil error, so the early
// return on that arm has no live file to close.
func notExistGuard(path string) (*os.File, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return f, nil
}

// errors.Is on the bound error proves the same thing.
func errorsIsGuard(path string) (*os.File, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Suppression: the reasoned directive silences the finding.
func suppressed() error {
	//lint:ignore resleak fd is handed to the kernel for the process lifetime
	f, err := os.Open("data")
	if err != nil {
		return err
	}
	_ = f.Name()
	return nil
}
