package cloudstore

import (
	"context"
	"errors"
	"fmt"
	"strings"

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
	methodGetRecipe, methodGetContainer, methodRead, methodCommit, methodStats,
}

// Client talks to a cloud store over one multiplexed connection. Transport
// failures are retried under a policy and redial the connection, so a WAN
// blip does not surface to the agent; a circuit breaker fails fast while
// the cloud stays unreachable.
type Client struct {
	addr  string
	peers *transport.Peers

	rpcLat   map[string]*metrics.Histogram
	rpcFails map[string]*metrics.Counter
}

// Dial connects to the cloud store at addr with the default retry policy
// and breaker.
func Dial(ctx context.Context, d transport.Dialer, addr string) (*Client, error) {
	return DialWithPolicy(ctx, d, addr, retrypolicy.Policy{}, retrypolicy.BreakerConfig{})
}

// DialWithPolicy connects with an explicit retry policy and breaker
// configuration. The initial dial is eager — callers learn about a
// persistently unreachable cloud immediately — but runs under the same
// retry policy as every later RPC, so a transient refusal at startup is
// absorbed rather than fatal. Later redials happen lazily per attempt.
func DialWithPolicy(ctx context.Context, d transport.Dialer, addr string, p retrypolicy.Policy, b retrypolicy.BreakerConfig) (*Client, error) {
	reg := metrics.Default()
	c := &Client{
		addr:     addr,
		peers:    transport.NewPeers(d, p, b, nil),
		rpcLat:   make(map[string]*metrics.Histogram, len(clientMethods)),
		rpcFails: make(map[string]*metrics.Counter, len(clientMethods)),
	}
	for _, m := range clientMethods {
		c.rpcLat[m] = reg.DurationHistogram("cloud_client_rpc_seconds", "method", m)
		c.rpcFails[m] = reg.Counter("cloud_client_rpc_failures_total", "method", m)
	}
	reg.GaugeFunc("cloud_client_breaker_state", func() float64 {
		return float64(c.peers.Breaker(addr).State())
	}, "addr", addr)
	if err := c.peers.Connect(ctx, addr); err != nil {
		return nil, err
	}
	return c, nil
}

// Close releases the connection. It is terminal: later calls fail with
// transport.ErrClientClosed.
func (c *Client) Close() error { return c.peers.Close() }

// call issues one RPC under the retry policy and breaker. Application
// errors (RemoteError) return immediately; transport failures redial and
// retry.
func (c *Client) call(ctx context.Context, method string, body []byte) ([]byte, error) {
	sp := metrics.StartTimer(c.rpcLat[method])
	resp, err := c.peers.Call(ctx, c.addr, method, body)
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
	return decodeCount(resp)
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
	return decodeCount(resp)
}

// Commit ends a stream in one round trip: it stores the stream's tail
// chunks, as BatchUpload would, and records its manifest under name. The
// server records the manifest only if every chunk it names is stored;
// otherwise the error wraps ErrNotFound and no manifest exists. It
// returns how many tail chunks were new.
func (c *Client) Commit(ctx context.Context, name string, ids []chunk.ID, chunks []chunk.Chunk) (stored int, err error) {
	body, err := encodeCommit(name, chunks, ids)
	if err != nil {
		return 0, err
	}
	resp, err := c.call(ctx, methodCommit, body)
	if err != nil {
		return 0, classifyRemote(err)
	}
	return decodeCount(resp)
}

// PutManifest records the chunk sequence of a named file: a Commit with
// no tail chunks.
func (c *Client) PutManifest(ctx context.Context, name string, ids []chunk.ID) error {
	_, err := c.Commit(ctx, name, ids, nil)
	return err
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
