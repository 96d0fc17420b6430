package cloudstore

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"

	"efdedup/internal/chunk"
	"efdedup/internal/metrics"
	"efdedup/internal/retrypolicy"
	"efdedup/internal/transport"
)

// clientMethods are the RPCs a cloud client issues; their latency and
// failure series are pre-resolved per client so the hot path records
// without a registry lookup.
var clientMethods = []string{
	methodBatchUpload, methodBatchHas, methodUploadRaw,
	methodGetChunks, methodGetRecipe, methodGetContainer,
	methodPutManifest, methodStats,
}

// Dialer is the dial half of a transport network.
type Dialer interface {
	Dial(ctx context.Context, addr string) (net.Conn, error)
}

// Client talks to a cloud store over one multiplexed connection. Transport
// failures are retried under a policy and redial the connection, so a WAN
// blip does not surface to the agent; a circuit breaker fails fast while
// the cloud stays unreachable.
type Client struct {
	addr    string
	dialer  Dialer
	retrier *retrypolicy.Retrier
	breaker *retrypolicy.Breaker

	rpcLat   map[string]*metrics.Histogram
	rpcFails map[string]*metrics.Counter

	mu  sync.Mutex
	rpc *transport.Client // nil after a transport failure until redial
}

// Dial connects to the cloud store at addr with the default retry policy
// and breaker.
func Dial(ctx context.Context, d Dialer, addr string) (*Client, error) {
	return DialWithPolicy(ctx, d, addr, retrypolicy.Policy{}, retrypolicy.BreakerConfig{})
}

// DialWithPolicy connects with an explicit retry policy and breaker
// configuration. The initial dial is eager — callers learn about a
// persistently unreachable cloud immediately — but runs under the same
// retry policy as every later RPC, so a transient refusal at startup is
// absorbed rather than fatal. Later redials happen lazily per attempt.
func DialWithPolicy(ctx context.Context, d Dialer, addr string, p retrypolicy.Policy, b retrypolicy.BreakerConfig) (*Client, error) {
	reg := metrics.Default()
	c := &Client{
		addr:     addr,
		dialer:   d,
		retrier:  retrypolicy.New(p),
		breaker:  retrypolicy.NewBreaker(b),
		rpcLat:   make(map[string]*metrics.Histogram, len(clientMethods)),
		rpcFails: make(map[string]*metrics.Counter, len(clientMethods)),
	}
	for _, m := range clientMethods {
		c.rpcLat[m] = reg.DurationHistogram("cloud_client_rpc_seconds", "method", m)
		c.rpcFails[m] = reg.Counter("cloud_client_rpc_failures_total", "method", m)
	}
	reg.GaugeFunc("cloud_client_breaker_state", func() float64 {
		return float64(c.breaker.State())
	}, "addr", addr)
	err := c.retrier.Do(ctx, c.breaker, nil, transport.Retryable,
		func(actx context.Context) error {
			_, err := c.conn(actx)
			return err
		})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Breaker exposes the client's circuit breaker state (for stats and the
// agent's recovery probing).
func (c *Client) Breaker() *retrypolicy.Breaker { return c.breaker }

// Close releases the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	rpc := c.rpc
	c.rpc = nil
	c.mu.Unlock()
	if rpc == nil {
		return nil
	}
	return rpc.Close()
}

// conn returns the live connection, redialing if the last one was dropped.
func (c *Client) conn(ctx context.Context) (*transport.Client, error) {
	c.mu.Lock()
	rpc := c.rpc
	c.mu.Unlock()
	if rpc != nil {
		return rpc, nil
	}
	raw, err := c.dialer.Dial(ctx, c.addr)
	if err != nil {
		return nil, fmt.Errorf("cloudstore: dial %s: %w", c.addr, err)
	}
	c.mu.Lock()
	if c.rpc != nil { // lost a redial race; keep the winner
		winner := c.rpc
		c.mu.Unlock()
		raw.Close()
		return winner, nil
	}
	rpc = transport.NewClient(raw)
	c.rpc = rpc
	c.mu.Unlock()
	return rpc, nil
}

// drop discards a failed connection so the next attempt redials. Only the
// exact connection that failed is dropped, so a concurrent redial's fresh
// connection survives.
func (c *Client) drop(rpc *transport.Client) {
	c.mu.Lock()
	if c.rpc == rpc {
		c.rpc = nil
	}
	c.mu.Unlock()
	rpc.Close()
}

// call issues one RPC under the retry policy and breaker. Application
// errors (RemoteError) return immediately; transport failures drop the
// connection and retry over a fresh dial.
func (c *Client) call(ctx context.Context, method string, body []byte) ([]byte, error) {
	sp := metrics.StartTimer(c.rpcLat[method])
	var resp []byte
	err := c.retrier.Do(ctx, c.breaker, nil, transport.Retryable,
		func(actx context.Context) error {
			rpc, err := c.conn(actx)
			if err != nil {
				return err
			}
			r, err := rpc.Call(actx, method, body)
			if err != nil {
				if !transport.IsRemoteError(err) {
					c.drop(rpc)
				}
				return err
			}
			resp = r
			return nil
		})
	sp.End()
	if err != nil && !transport.IsRemoteError(err) {
		c.rpcFails[method].Inc()
	}
	return resp, err
}

// BatchUpload stores many chunks in one RPC and returns how many were new.
func (c *Client) BatchUpload(ctx context.Context, chunks []chunk.Chunk) (stored int, err error) {
	resp, err := c.call(ctx, methodBatchUpload, encodeChunkList(chunks))
	if err != nil {
		return 0, err
	}
	if len(resp) != 4 {
		return 0, fmt.Errorf("%w: malformed batch upload response", ErrProto)
	}
	return int(binary.BigEndian.Uint32(resp)), nil
}

// BatchHas asks the cloud's global index which of the given chunk IDs it
// already stores (the cloud-assisted lookup path).
func (c *Client) BatchHas(ctx context.Context, ids []chunk.ID) ([]bool, error) {
	resp, err := c.call(ctx, methodBatchHas, encodeIDList(ids))
	if err != nil {
		return nil, err
	}
	if len(resp) != len(ids) {
		return nil, fmt.Errorf("%w: malformed has response", ErrProto)
	}
	out := make([]bool, len(ids))
	for i, b := range resp {
		out[i] = b == 1
	}
	return out, nil
}

// UploadRaw ships an entire stream to the cloud (cloud-only mode); the
// server chunks and deduplicates it and records a manifest under name.
func (c *Client) UploadRaw(ctx context.Context, name string, data []byte) (storedChunks int, err error) {
	body, err := encodeNamedBlob(name, data)
	if err != nil {
		return 0, err
	}
	resp, err := c.call(ctx, methodUploadRaw, body)
	if err != nil {
		return 0, classifyRemote(err)
	}
	if len(resp) != 4 {
		return 0, fmt.Errorf("%w: malformed raw upload response", ErrProto)
	}
	return int(binary.BigEndian.Uint32(resp)), nil
}

// PutManifest records the chunk sequence of a named file.
func (c *Client) PutManifest(ctx context.Context, name string, ids []chunk.ID) error {
	body, err := encodeNamedBlob(name, encodeManifestIDs(ids))
	if err != nil {
		return err
	}
	_, err = c.call(ctx, methodPutManifest, body)
	return classifyRemote(err)
}

// GetManifest returns the chunk sequence of a named file: the IDs of its
// restore recipe.
func (c *Client) GetManifest(ctx context.Context, name string) ([]chunk.ID, error) {
	recipe, err := c.GetRecipe(ctx, name)
	if err != nil {
		return nil, err
	}
	ids := make([]chunk.ID, len(recipe))
	for i, e := range recipe {
		ids[i] = e.ID
	}
	return ids, nil
}

// FetchStats retrieves the server's counters.
func (c *Client) FetchStats(ctx context.Context) (Stats, error) {
	resp, err := c.call(ctx, methodStats, nil)
	if err != nil {
		return Stats{}, err
	}
	return decodeStats(resp)
}

// classifyRemote maps a server-side application error back onto the
// package sentinels so callers can errors.Is across the RPC boundary:
// remote not-found becomes ErrNotFound, and remote integrity failures
// (whose messages carry the offending container) wrap ErrCorrupt.
func classifyRemote(err error) error {
	var remote *transport.RemoteError
	if !errors.As(err, &remote) {
		return err
	}
	if remote.Msg == ErrNotFound.Error() || strings.HasSuffix(remote.Msg, ": "+ErrNotFound.Error()) ||
		strings.HasPrefix(remote.Msg, ErrNotFound.Error()+":") {
		return fmt.Errorf("%w: %s", ErrNotFound, remote.Msg)
	}
	if strings.Contains(remote.Msg, ErrCorrupt.Error()) {
		return fmt.Errorf("%w: %s", ErrCorrupt, remote.Msg)
	}
	if strings.Contains(remote.Msg, ErrProto.Error()) {
		return fmt.Errorf("%w: %s", ErrProto, remote.Msg)
	}
	return err
}
