package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"efdedup/internal/chunk"
	"efdedup/internal/cloudstore"
	"efdedup/internal/hashring"
	"efdedup/internal/kvstore"
	"efdedup/internal/netem"
	"efdedup/internal/transport"
)

// The isolated rows time one public function of one layer against a
// one-off fixture on an unshaped MemNetwork, so a layer's own cost can
// be told from what the workloads' testbeds add around it.

// perOp runs fn in rounds of n calls and returns the median round's
// time per call. Rounds, not single calls, are timed so that calls far
// shorter than a clock reading still measure.
func perOp(rounds, n int, fn func() error) (time.Duration, error) {
	per := make([]float64, rounds)
	for r := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		per[r] = float64(time.Since(start)) / float64(n)
	}
	return time.Duration(median(per)), nil
}

// n scales a repetition or record count down with a scaled-down run
// (the smoke test), never up.
func (cfg config) n(full int) int { return max(int(float64(full)*min(cfg.scale, 1)), 2) }

func micros(d time.Duration) float64 { return float64(d) / 1e3 }
func millis(d time.Duration) float64 { return float64(d) / 1e6 }

// key returns the i-th of a reproducible sequence of 32-byte keys that
// spread over a hash ring the way chunk IDs do.
func key(i int) []byte {
	sum := sha256.Sum256(binary.BigEndian.AppendUint64(nil, uint64(i)))
	return sum[:]
}

// freshChunks returns n chunks of size bytes that no store has seen,
// numbered from first so successive calls do not repeat.
func freshChunks(first, n, size int) []chunk.Chunk {
	out := make([]chunk.Chunk, n)
	for i := range out {
		data := make([]byte, size)
		for off := 0; off < size; off += sha256.Size {
			copy(data[off:], key((first+i)<<16|off/sha256.Size))
		}
		out[i] = chunk.Chunk{ID: chunk.Sum(data), Data: data}
	}
	return out
}

func isolated(cfg config, vals map[string]float64) error {
	start := time.Now()
	dir := filepath.Join(cfg.dir, cfg.sp.name+"-iso")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("isolated rows: %w", err)
	}
	defer os.RemoveAll(dir)
	for _, row := range []func(config, string, map[string]float64) error{isoHashring, isoTransport, isoNetem, isoKVNode, isoWAL, isoRecovery, isoDiskCloud} {
		if err := row(cfg, dir, vals); err != nil {
			return fmt.Errorf("isolated rows: %w", err)
		}
	}
	info("isolated rows took %.2fs", time.Since(start).Seconds())
	return nil
}

func isoHashring(cfg config, _ string, vals map[string]float64) error {
	ring, err := hashring.New(hashring.DefaultVirtualNodes)
	if err != nil {
		return err
	}
	for _, n := range cfg.sp.rings[0] {
		ring.Add(kvAddr(n))
	}
	k, i := key(0), 0
	d, err := perOp(cfg.n(20), 2000, func() error {
		i++
		k[0] = byte(i)
		if len(ring.Lookup(k, 2)) == 0 {
			return fmt.Errorf("hashring: empty lookup")
		}
		return nil
	})
	vals["hashring.lookup_ns"] = float64(d)
	return err
}

// echo is a transport server with one handler that returns its body,
// and a client connected to it.
type echo struct {
	srv *transport.Server
	cl  *transport.Client
}

func newEcho(listen, dial transport.Network, addr string, ms *meters) (*echo, error) {
	l, err := listen.Listen(addr)
	if err != nil {
		return nil, err
	}
	srv := transport.NewServer()
	srv.Handle("echo", func(body []byte) ([]byte, error) { return body, nil })
	ml := ms.listener(kvListen, l)
	go srv.Serve(ml) //nolint:errcheck // returns net.ErrClosed on Close
	conn, err := ms.dialer(indexDial, dial).Dial(context.Background(), l.Addr().String())
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &echo{srv: srv, cl: transport.NewClient(conn)}, nil
}

func (e *echo) call(body []byte) error {
	_, err := e.cl.Call(context.Background(), "echo", body)
	return err
}

func (e *echo) close() {
	e.cl.Close()
	e.srv.Close()
}

func isoTransport(cfg config, _ string, vals map[string]float64) error {
	ms := &meters{}
	mem := transport.NewMemNetwork()
	e, err := newEcho(mem, mem, "echo", ms)
	if err != nil {
		return err
	}
	defer e.close()
	small := make([]byte, 64)
	d, err := perOp(cfg.n(20), 200, func() error { return e.call(small) })
	if err != nil {
		return err
	}
	vals["transport.roundtrip_us"] = micros(d)

	// Writes and allocations per call, both ends of the connection.
	n := cfg.n(1000)
	writes := ms.stats[indexDial].writes.Load() + ms.stats[kvListen].writes.Load()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		if err := e.call(small); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	vals["transport.conn_writes_per_call"] = float64(ms.stats[indexDial].writes.Load()+ms.stats[kvListen].writes.Load()-writes) / float64(n)
	vals["transport.allocs_per_call"] = float64(m1.Mallocs-m0.Mallocs) / float64(n)

	// Two callers multiplexed on the one connection.
	var rates []float64
	for round := 0; round < 5; round++ {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		start := time.Now()
		for c := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n && errs[c] == nil; i++ {
					errs[c] = e.call(small)
				}
			}()
		}
		wg.Wait()
		if errs[0] != nil || errs[1] != nil {
			return fmt.Errorf("pipelined calls: %v, %v", errs[0], errs[1])
		}
		rates = append(rates, float64(2*n)/time.Since(start).Seconds())
	}
	vals["transport.pipelined_calls_per_s"] = median(rates)

	large := make([]byte, 1<<20)
	d, err = perOp(cfg.n(20), 5, func() error { return e.call(large) })
	if err != nil {
		return err
	}
	vals["transport.large_payload_mbps"] = float64(len(large)) / d.Seconds() / 1e6

	// The same echo over the host's loopback TCP: not a network, but
	// the path the daemons use. A sandbox without loopback reads 0.
	vals["transport.tcp_roundtrip_us"] = 0
	tcp, err := newEcho(transport.TCPNetwork{}, transport.TCPNetwork{}, "127.0.0.1:0", nil)
	if err != nil {
		info("no loopback TCP: %v", err)
		return nil
	}
	defer tcp.close()
	if d, err = perOp(cfg.n(20), 200, func() error { return tcp.call(small) }); err != nil {
		return err
	}
	vals["transport.tcp_roundtrip_us"] = micros(d)
	return nil
}

// isoNetem checks the harness itself: an echo over the paper's WAN link
// should take the configured delay.
func isoNetem(cfg config, _ string, vals map[string]float64) error {
	wan := specByName("edge-backup").wanLink
	topo := netem.NewTopology(netem.Link{})
	topo.SetSymmetricLink("edge", cloudSite, wan)
	mem := transport.NewMemNetwork()
	e, err := newEcho(topo.NetworkFor(cloudSite, mem), topo.NetworkFor("edge", mem), "echo", nil)
	if err != nil {
		return err
	}
	defer e.close()
	d, err := perOp(cfg.n(40), 1, func() error { return e.call(make([]byte, 64)) })
	vals["netem.rtt_error_pct"] = 100 * (d.Seconds() - wan.Delay.Seconds()) / wan.Delay.Seconds()
	return err
}

// kvFixture is one storage node and a coordinator whose ring is that
// node alone: service time and framing, no second hop.
type kvFixture struct {
	node *kvstore.Node
	cl   *kvstore.Cluster
}

func newKVFixture(cfg kvstore.NodeConfig) (*kvFixture, error) {
	node, err := kvstore.NewNode(cfg)
	if err != nil {
		return nil, err
	}
	mem := transport.NewMemNetwork()
	l, err := mem.Listen("kv")
	if err != nil {
		node.Close()
		return nil, err
	}
	node.Serve(l)
	cl, err := kvstore.NewCluster(kvstore.ClusterConfig{Members: []string{"kv"}, Network: mem})
	if err != nil {
		node.Close()
		return nil, err
	}
	return &kvFixture{node: node, cl: cl}, nil
}

func (f *kvFixture) close() {
	f.cl.Close()
	f.node.Close()
}

// put stores n fresh entries, numbered from first, in one BatchPut.
func (f *kvFixture) put(first, n int) error {
	keys, values := make([][]byte, n), make([][]byte, n)
	for i := range keys {
		keys[i], values[i] = key(first+i), []byte("n0")
	}
	return f.cl.BatchPut(context.Background(), keys, values)
}

func isoKVNode(cfg config, dir string, vals map[string]float64) error {
	f, err := newKVFixture(kvstore.NodeConfig{})
	if err != nil {
		return err
	}
	defer f.close()
	if err := f.put(0, 32); err != nil {
		return err
	}
	keys := make([][]byte, 32)
	for i := range keys {
		keys[i] = key(i)
	}
	d, err := perOp(cfg.n(20), 100, func() error {
		_, err := f.cl.BatchHas(context.Background(), keys)
		return err
	})
	if err != nil {
		return err
	}
	vals["kvstore.node_batchhas_us"] = micros(d)

	// Index memory: what 200 000 entries add to the live heap.
	entries := cfg.n(200) * 1000
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for first := 32; first < 32+entries; first += 1000 {
		if err := f.put(first, 1000); err != nil {
			return err
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	vals["kvstore.heap_bytes_per_entry"] = (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(entries)

	w, err := newKVFixture(kvstore.NodeConfig{WALPath: filepath.Join(dir, "node.wal")})
	if err != nil {
		return err
	}
	defer w.close()
	next := 0
	d, err = perOp(cfg.n(20), 20, func() error {
		next += 64
		return w.put(next, 64)
	})
	vals["kvstore.node_batchput_wal_us"] = micros(d)
	return err
}

func isoWAL(cfg config, dir string, vals map[string]float64) error {
	for _, p := range []struct {
		policy    kvstore.SyncPolicy
		rounds, n int
	}{{kvstore.SyncAlways, cfg.n(20), 20}, {kvstore.SyncInterval, cfg.n(20), 1000}, {kvstore.SyncOff, cfg.n(20), 1000}} {
		wal, err := kvstore.OpenWALOptions(kvstore.WALOptions{Path: filepath.Join(dir, "append-"+p.policy.String()+".wal"), Sync: p.policy})
		if err != nil {
			return err
		}
		i := 0
		d, err := perOp(p.rounds, p.n, func() error {
			i++
			return wal.Append(key(i), kvstore.Entry{Value: []byte("n0"), Version: uint64(i)})
		})
		if cerr := wal.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		vals["kvstore.wal_append_us_"+p.policy.String()] = micros(d)
	}
	return nil
}

// isoRecovery times a node start that replays a 100 000-record log, and
// a snapshot of the table it recovered.
func isoRecovery(cfg config, dir string, vals map[string]float64) error {
	records := cfg.n(100) * 1000
	path := filepath.Join(dir, "recover.wal")
	wal, err := kvstore.OpenWALOptions(kvstore.WALOptions{Path: path, Sync: kvstore.SyncOff})
	if err != nil {
		return err
	}
	for i := 0; i < records; i++ {
		if err := wal.Append(key(i), kvstore.Entry{Value: []byte("n0"), Version: uint64(i + 1)}); err != nil {
			wal.Close()
			return err
		}
	}
	if err := wal.Close(); err != nil {
		return err
	}
	// Size-triggered snapshots off: they would truncate the log the
	// next round replays.
	open := func() (*kvstore.Node, error) {
		return kvstore.NewNode(kvstore.NodeConfig{WALPath: path, SnapshotBytes: -1})
	}
	var replays []float64
	for round := 0; round < 3; round++ {
		start := time.Now()
		node, err := open()
		if err != nil {
			return err
		}
		replays = append(replays, millis(time.Since(start)))
		got := node.Len()
		if err := node.Close(); err != nil {
			return err
		}
		if got != records {
			return fmt.Errorf("recovered %d of %d records", got, records)
		}
	}
	vals["kvstore.recovery_ms"] = median(replays)
	node, err := open()
	if err != nil {
		return err
	}
	defer node.Close()
	d, err := perOp(3, 1, node.Snapshot)
	vals["kvstore.snapshot_ms"] = millis(d)
	return err
}

// isoDiskCloud exercises the cloud store's file tier, which no workload
// runs on: every fresh chunk is staged as a flat file (fsync, rename,
// directory fsync), packed into a container that is installed the same
// way, and the staged copy is deleted. Times here are this device's and
// wander with it; the byte ratios repeat.
func isoDiskCloud(cfg config, dir string, vals map[string]float64) error {
	const chunkSize = 8192
	batches := max(cfg.n(12), 9) // of 64 chunks: > 4 MiB, so one container seals mid-run
	root := filepath.Join(dir, "cloud")
	srv, err := cloudstore.NewServer(cloudstore.Config{Dir: root})
	if err != nil {
		return err
	}
	defer srv.Close()
	mem := transport.NewMemNetwork()
	l, err := mem.Listen(cloudAddr)
	if err != nil {
		return err
	}
	srv.Serve(l)
	ctx := context.Background()
	cl, err := cloudstore.Dial(ctx, mem, cloudAddr)
	if err != nil {
		return err
	}
	defer cl.Close()

	var rates []float64
	var input int64
	io0 := readProcIO()
	for b := 0; b < batches; b++ {
		batch := freshChunks(b*64, 64, chunkSize)
		start := time.Now()
		if _, err := cl.BatchUpload(ctx, batch); err != nil {
			return err
		}
		rates = append(rates, float64(len(batch)*chunkSize)/time.Since(start).Seconds()/1e6)
		input += int64(len(batch) * chunkSize)
	}
	srv.FlushContainers()
	io1 := readProcIO()
	vals["cloudstore.disk_batchupload_mbps"] = median(rates)
	vals["cloudstore.disk_stored_bytes_per_input_byte"] = float64(dirBytes(root)) / float64(input)
	vals["cloudstore.disk_written_bytes_per_input_byte"] = float64(io1.wchar-io0.wchar) / float64(input)
	vals["cloudstore.disk_write_syscalls_per_mb"] = float64(io1.syscw-io0.syscw) / (float64(input) / 1e6)
	d, err := perOp(10, 1, func() error {
		_, err := cl.GetContainer(ctx, 1)
		return err
	})
	vals["cloudstore.disk_getcontainer_ms"] = millis(d)
	return err
}
