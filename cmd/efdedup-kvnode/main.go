// Command efdedup-kvnode runs one storage replica of a D2-ring's
// deduplication index — the per-edge-node daemon of the EF-dedup
// prototype (the role a Cassandra node plays in the paper).
//
// Usage:
//
//	efdedup-kvnode -listen 0.0.0.0:7070 [-wal /var/lib/efdedup/index.wal]
//
// The daemon serves the kv.* RPC protocol until interrupted. With -wal it
// persists every write to a crash-safe append-only log and recovers on
// restart from the latest snapshot plus the WAL suffix. -wal-sync selects
// the fsync policy (always | interval | off) and -snapshot-bytes bounds
// the log by snapshotting and truncating it once it grows past the
// threshold.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"efdedup/internal/kvstore"
	"efdedup/internal/metrics"
	"efdedup/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// listenOrClose binds addr, closing owner when the bind fails: the
// daemon exits on that path and nothing else would release the owner's
// WAL and snapshot timer.
func listenOrClose(network transport.Network, addr string, owner io.Closer) (net.Listener, error) {
	l, err := network.Listen(addr)
	if err != nil {
		owner.Close()
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	return l, nil
}

func run() error {
	var (
		listen       = flag.String("listen", "127.0.0.1:7070", "address to serve the index protocol on")
		wal          = flag.String("wal", "", "optional write-ahead log path for durability across restarts")
		walSync      = flag.String("wal-sync", "interval", "WAL fsync policy: always (fsync before ack), interval (group commit), off")
		walSyncEvery = flag.Duration("wal-sync-interval", kvstore.DefaultSyncEvery, "group-commit interval under -wal-sync=interval")
		snapshot     = flag.String("snapshot", "", "snapshot file path (default <wal>.snap)")
		snapBytes    = flag.Int64("snapshot-bytes", kvstore.DefaultSnapshotBytes, "snapshot and truncate the WAL when it exceeds this size; negative disables")
		snapEvery    = flag.Duration("snapshot-interval", 0, "additionally snapshot on this period (0 disables)")
		metricsAddr  = flag.String("metrics-addr", "", "serve /metrics and /debug/pprof/ on this address (empty disables)")
	)
	flag.Parse()

	syncPolicy, err := kvstore.ParseSyncPolicy(*walSync)
	if err != nil {
		return err
	}

	if *metricsAddr != "" {
		go func() {
			log.Printf("metrics server stopped: %v", metrics.ListenAndServe(*metricsAddr, metrics.Default()))
		}()
		log.Printf("metrics on http://%s/metrics (pprof under /debug/pprof/)", *metricsAddr)
	}

	node, err := kvstore.NewNode(kvstore.NodeConfig{
		WALPath:       *wal,
		WALSync:       syncPolicy,
		WALSyncEvery:  *walSyncEvery,
		SnapshotPath:  *snapshot,
		SnapshotBytes: *snapBytes,
		SnapshotEvery: *snapEvery,
	})
	if err != nil {
		return err
	}
	if *wal != "" {
		if rs := node.RecoveryStats(); rs.Records > 0 || rs.Discarded() > 0 {
			log.Printf("recovered %d WAL records (torn tail %dB, corrupt %dB discarded)",
				rs.Records, rs.TornBytes, rs.CorruptBytes)
		}
	}
	l, err := listenOrClose(transport.TCPNetwork{}, *listen, node)
	if err != nil {
		return err
	}
	node.Serve(l)
	log.Printf("efdedup-kvnode serving on %s (wal=%q sync=%s)", l.Addr(), *wal, syncPolicy)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down: %+v", node.Stats())
	return node.Close()
}
