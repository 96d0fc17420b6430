// Package transport is the RPC substrate shared by the EF-dedup services
// (distributed KV store, central cloud store, dedup agents).
//
// It provides:
//
//   - a length-prefixed binary frame protocol with request multiplexing,
//     so many in-flight requests share one connection (essential when
//     per-link latency is emulated);
//   - Server, dispatching frames to registered method handlers;
//   - Client, a connection with concurrent Call support;
//   - Peers, the one client stack every caller shares: a Client per
//     address, redialed after transport failures, each call retried
//     under the caller's policy and the address's circuit breaker;
//   - Network, an abstraction over how bytes move: real TCP
//     (TCPNetwork) or an in-process memory fabric (MemNetwork) so whole
//     clusters can run inside one test binary.
package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"efdedup/internal/codec"
)

// aLongTimeAgo unblocks an in-flight Write when its context fires.
var aLongTimeAgo = time.Unix(1, 0)

// MaxFrameSize bounds a single frame (1 GiB) to catch protocol corruption
// before it turns into an enormous allocation.
const MaxFrameSize = 1 << 30

// frame types.
const (
	frameRequest  = 1
	frameResponse = 2
)

// status codes carried on response frames.
const (
	statusOK    = 0
	statusError = 1
)

// ErrClientClosed is returned by Call after Close.
var ErrClientClosed = errors.New("transport: client closed")

// errSendCut ends a connection whose caller gave up in the middle of
// sending a frame: the frame stream cannot be parsed past it.
var errSendCut = fmt.Errorf("%w: a cancelled send cut a frame short", ErrClientClosed)

// ErrProto marks malformed, truncated or over-limit frames: the peer is
// speaking a different protocol (or corrupting data), so retrying the
// same bytes cannot help and must not burn retry budget.
var ErrProto = errors.New("transport: protocol error")

// ErrRefused marks dials to an address nobody is listening on. It is
// retryable: the peer may simply not have bound yet.
var ErrRefused = errors.New("transport: connection refused")

// ErrAddrInUse marks an attempt to bind an already-bound address.
var ErrAddrInUse = errors.New("transport: address already in use")

// RemoteError is an application error returned by the remote handler, as
// opposed to a transport failure.
type RemoteError struct {
	Method string
	Msg    string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: remote %s: %s", e.Method, e.Msg)
}

// IsRemoteError reports whether err is (or wraps) an application-level
// RemoteError. Retry layers use this to classify failures: a remote error
// proves the transport worked and must not be retried or counted against
// a peer's circuit breaker.
func IsRemoteError(err error) bool {
	var remote *RemoteError
	return errors.As(err, &remote)
}

// Retryable is the standard retry classifier for transport calls:
// everything except an application-level RemoteError (dial failures,
// resets, timeouts, lost connections) is worth retrying.
func Retryable(err error) bool { return !IsRemoteError(err) }

// frameWriter writes the frames of one connection. A frame's payload is
// a header, which the caller encodes into the writer's scratch, and a
// body, which it passes by reference: the length prefix and the header go
// out as one write and the body as a second — one writev on TCP — so the
// body is never copied into a frame. The scratch is reused from frame to
// frame, so callers serialize (the connection's writeMu).
type frameWriter struct {
	hdr  []byte      // length prefix and header of the frame being written
	vec  [2][]byte   // header and body, behind bufs
	bufs net.Buffers // kept here so that WriteTo's receiver does not escape per frame
}

// header returns the scratch for the next frame's header: room for the
// length prefix, which writeFrame fills in, to append the header to.
func (fw *frameWriter) header() []byte {
	return append(fw.hdr[:0], 0, 0, 0, 0)
}

// writeFrame writes one frame, hdr (from header, with the frame header
// appended) followed by body, to w.
func (fw *frameWriter) writeFrame(w io.Writer, hdr, body []byte) error {
	n := len(hdr) - 4 + len(body)
	if n > MaxFrameSize {
		return fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrProto, n)
	}
	codec.U32(hdr[:0], uint32(n)) // fills the prefix in place
	fw.hdr = hdr
	fw.vec = [2][]byte{hdr, body}
	fw.bufs = fw.vec[:1]
	if len(body) > 0 {
		fw.bufs = fw.vec[:2]
	}
	_, err := fw.bufs.WriteTo(w)
	fw.vec[1] = nil // the body is the caller's
	return err
}

// readBufSize is a connection's read buffer: room for the length prefix
// and header of any request or OK response (at most 269 bytes), so that
// the first read of a frame takes in the whole first write of it. An
// unbuffered conn (MemNetwork's pipes) completes a write only once the
// reader has taken all of it, so reading the 4-byte prefix alone would
// cost every frame a third hand-over. Bodies this large or larger are
// read straight into the frame.
const readBufSize = 512

// readFrame reads one length-prefixed frame; r is the connection's
// bufio.Reader of readBufSize.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	hr := codec.NewReader(hdr[:], ErrProto)
	n := hr.U32()
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrProto, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// request payload layout:
//
//	u8  frameRequest
//	u64 request id
//	u8  method length
//	... method bytes
//	... body
//
// response payload layout:
//
//	u8  frameResponse
//	u64 request id
//	u8  status
//	u32 error length (when status != OK)
//	... error bytes
//	... body
//
// encodeRequest and encodeResponse append the header, everything but
// the body, to dst; writeFrame sends the body after it.
func encodeRequest(dst []byte, id uint64, method string) ([]byte, error) {
	if len(method) > 255 {
		return nil, fmt.Errorf("%w: method name %q too long", ErrProto, method)
	}
	dst = codec.U8(dst, frameRequest)
	dst = codec.U64(dst, id)
	return codec.Bytes8(dst, method), nil
}

func decodeRequest(p []byte) (id uint64, method string, body []byte, err error) {
	r := codec.NewReader(p, ErrProto)
	kind, id, m, body := r.U8(), r.U64(), r.Bytes8(), r.Rest()
	if kind != frameRequest && r.Err() == nil {
		return 0, "", nil, fmt.Errorf("%w: frame type %d is not a request", ErrProto, kind)
	}
	return id, string(m), body, r.Err()
}

func encodeResponse(dst []byte, id uint64, remoteErr string) []byte {
	dst = codec.U8(dst, frameResponse)
	dst = codec.U64(dst, id)
	if remoteErr != "" {
		dst = codec.U8(dst, statusError)
		return codec.Bytes32(dst, remoteErr)
	}
	return codec.U8(dst, statusOK)
}

func decodeResponse(p []byte) (id uint64, body []byte, remoteErr string, err error) {
	r := codec.NewReader(p, ErrProto)
	kind, id, status := r.U8(), r.U64(), r.U8()
	switch {
	case r.Err() != nil:
		return 0, nil, "", r.Err()
	case kind != frameResponse:
		return 0, nil, "", fmt.Errorf("%w: frame type %d is not a response", ErrProto, kind)
	case status == statusOK:
		return id, r.Rest(), "", nil
	case status == statusError:
		msg := r.Bytes32()
		return id, nil, string(msg), r.Err()
	}
	return 0, nil, "", fmt.Errorf("%w: unknown status %d", ErrProto, status)
}

// HandlerFunc processes one request body and returns a response body.
type HandlerFunc func(body []byte) ([]byte, error)

// Server dispatches framed requests to registered handlers.
type Server struct {
	mu       sync.Mutex
	handlers map[string]HandlerFunc
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer returns a Server with no handlers registered.
func NewServer() *Server {
	return &Server{
		handlers: make(map[string]HandlerFunc),
		conns:    make(map[net.Conn]struct{}),
	}
}

// Handle registers fn for the given method name. Registration must happen
// before Serve; later registrations are still picked up but not synchronized
// with in-flight dispatches of the same name.
func (s *Server) Handle(method string, fn HandlerFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = fn
}

// Serve accepts connections from l until Close is called. It always returns
// a non-nil error; after Close it returns net.ErrClosed.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		// Close ran before this listener was registered, so it could
		// not close it; do so here or conns already sitting in the
		// accept backlog would stay open (and unread) forever.
		l.Close()
		return net.ErrClosed
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	var writeMu sync.Mutex
	var fw frameWriter // guarded by writeMu
	var pending sync.WaitGroup
	defer pending.Wait()
	br := bufio.NewReaderSize(conn, readBufSize)
	for {
		payload, err := readFrame(br)
		if err != nil {
			return
		}
		id, method, body, err := decodeRequest(payload)
		if err != nil {
			return
		}
		s.mu.Lock()
		fn := s.handlers[method]
		s.mu.Unlock()
		pending.Add(1)
		go func() {
			defer pending.Done()
			var respBody []byte
			var errMsg string
			if fn == nil {
				errMsg = fmt.Sprintf("unknown method %q", method)
			} else if resp, herr := dispatch(fn, body); herr != nil {
				errMsg = herr.Error()
			} else {
				respBody = resp
			}
			writeMu.Lock()
			defer writeMu.Unlock()
			// A write failure means the peer is gone; the read loop
			// will terminate on its own.
			//lint:ignore lockedio writeMu exists to serialize response frames on this conn; a failed response write means the peer is gone and the read loop exits on its own
			_ = fw.writeFrame(conn, encodeResponse(fw.header(), id, errMsg), respBody)
		}()
	}
}

// dispatch invokes a handler, converting a panic into an error so one
// malformed request cannot take down the process: the panic travels
// back to the caller as a statusError response wrapping ErrProto (a
// handler panic on hostile bytes is a protocol violation the decoder
// failed to reject) and the connection keeps serving.
func dispatch(fn HandlerFunc, body []byte) (resp []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp = nil
			err = fmt.Errorf("%w: handler panic: %v", ErrProto, r)
		}
	}()
	return fn(body)
}

// Close stops accepting, closes every connection and waits for in-flight
// handlers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	l := s.listener
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

// Client issues concurrent framed requests over a single connection.
type Client struct {
	conn    net.Conn
	writeMu sync.Mutex
	fw      frameWriter // guarded by writeMu

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan response
	err     error // terminal error, set once the read loop dies
	done    chan struct{}
}

type response struct {
	body      []byte
	remoteErr string
}

// NewClient wraps an established connection. The client owns the
// connection and closes it on Close.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		pending: make(map[uint64]chan response),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c
}

func (c *Client) readLoop() {
	var err error
	br := bufio.NewReaderSize(c.conn, readBufSize)
	for {
		var payload []byte
		payload, err = readFrame(br)
		if err != nil {
			break
		}
		id, body, remoteErr, decErr := decodeResponse(payload)
		if decErr != nil {
			err = decErr
			break
		}
		c.mu.Lock()
		ch := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ch != nil {
			ch <- response{body: body, remoteErr: remoteErr}
		}
	}
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
	c.mu.Unlock()
	close(c.done)
}

// Call sends one request and waits for its response, the context, or
// connection failure — whichever comes first. It is safe for concurrent
// use.
func (c *Client) Call(ctx context.Context, method string, body []byte) ([]byte, error) {
	ch := make(chan response, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()

	c.writeMu.Lock()
	hdr, err := encodeRequest(c.fw.header(), id, method)
	if err != nil {
		c.writeMu.Unlock()
		c.abandon(id)
		return nil, err
	}
	// The send itself must honor ctx: a peer that stopped reading (full
	// TCP send buffer, or an in-memory conn still in the accept
	// backlog) blocks Write indefinitely, and the select below only
	// covers the response wait. Clear first in case a previous
	// interrupted call left the poisoned deadline behind.
	//lint:ignore lockedio setting a deadline is local conn state, not blocking wire I/O
	c.conn.SetWriteDeadline(time.Time{})
	stop := context.AfterFunc(ctx, func() {
		c.conn.SetWriteDeadline(aLongTimeAgo)
	})
	//lint:ignore lockedio writeMu exists to serialize request frames on this conn; it guards the write itself
	err = c.fw.writeFrame(c.conn, hdr, body)
	stop()
	cause := err
	if err != nil {
		// No frame may follow one cut short, so the connection ends here.
		if ctx.Err() != nil {
			cause = errSendCut
		}
		c.mu.Lock()
		if c.err == nil {
			c.err = cause
		}
		cause = c.err
		c.mu.Unlock()
		//lint:ignore lockedio closing under writeMu is what keeps any frame from following the cut one
		c.conn.Close()
	}
	c.writeMu.Unlock()
	if err != nil {
		c.abandon(id)
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("transport: send %s: %w", method, cause)
	}

	select {
	case resp, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			if err == nil {
				err = ErrClientClosed
			}
			return nil, fmt.Errorf("transport: %s: connection lost: %w", method, err)
		}
		if resp.remoteErr != "" {
			return nil, &RemoteError{Method: method, Msg: resp.remoteErr}
		}
		return resp.body, nil
	case <-ctx.Done():
		c.abandon(id)
		return nil, ctx.Err()
	}
}

// failed reports whether the connection has ended.
func (c *Client) failed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err != nil
}

// abandon forgets a pending request (response, if any, is dropped).
func (c *Client) abandon(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// Close tears down the connection and fails all pending calls.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.err == nil {
		c.err = ErrClientClosed
	}
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.done
	return err
}
