// Command efdedup-cloud runs the central cloud store: a content-addressed
// chunk store with a global dedup index and file-manifest catalog, serving
// EF-dedup agents (unique-chunk uploads), cloud-assisted agents (index
// probes) and cloud-only agents (raw uploads deduplicated server-side).
//
// Usage:
//
//	efdedup-cloud -listen 0.0.0.0:7080 [-chunk-size 8192]
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
	"time"

	"efdedup/internal/chunk"
	"efdedup/internal/cloudstore"
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
// container writer and disk state.
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
		listen      = flag.String("listen", "127.0.0.1:7080", "address to serve the cloud protocol on")
		chunkSize   = flag.Int("chunk-size", chunk.DefaultFixedSize, "server-side chunk size for raw (cloud-only) uploads")
		dataDir     = flag.String("dir", "", "persist chunks and manifests under this directory (survives restarts)")
		statsEach   = flag.Duration("stats-interval", time.Minute, "how often to log store statistics (0 disables)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /debug/pprof/ on this address (empty disables)")

		containerBytes = flag.Int("container-bytes", cloudstore.DefaultContainerBytes, "target sealed locality-container size, at most 1 GiB (1073741824)")
		dupFraction    = flag.Float64("dup-fraction", cloudstore.DefaultDupFraction, "selective-duplication byte budget as a fraction of unique bytes (0 disables repacking)")
		sparseRefs     = flag.Int("sparse-ref-limit", cloudstore.DefaultSparseRefLimit, "a manifest referencing a container for at most this many chunks marks it fragmenting")
	)
	flag.Parse()

	if *metricsAddr != "" {
		go func() {
			log.Printf("metrics server stopped: %v", metrics.ListenAndServe(*metricsAddr, metrics.Default()))
		}()
		log.Printf("metrics on http://%s/metrics (pprof under /debug/pprof/)", *metricsAddr)
	}

	chunker, err := chunk.NewFixedChunker(*chunkSize)
	if err != nil {
		return err
	}
	srv, err := cloudstore.NewServer(cloudstore.Config{
		Chunker:        chunker,
		Dir:            *dataDir,
		ContainerBytes: *containerBytes,
		DupFraction:    *dupFraction,
		SparseRefLimit: *sparseRefs,
	})
	if err != nil {
		return err
	}
	l, err := listenOrClose(transport.TCPNetwork{}, *listen, srv)
	if err != nil {
		return err
	}
	srv.Serve(l)
	log.Printf("efdedup-cloud serving on %s (chunk-size=%d, dir=%q)", l.Addr(), *chunkSize, *dataDir)

	stop := make(chan struct{})
	if *statsEach > 0 {
		go func() {
			ticker := time.NewTicker(*statsEach)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					s := srv.Stats()
					log.Printf("stats: unique=%d chunks / %d bytes, logical=%d bytes, raw-uploads=%d, manifests=%d, containers=%d (dup=%d bytes)",
						s.UniqueChunks, s.UniqueBytes, s.LogicalBytes, s.RawUploads, s.Manifests, s.ContainersSealed, s.DuplicatedBytes)
				case <-stop:
					return
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	close(stop)
	log.Printf("shutting down: %+v", srv.Stats())
	return srv.Close()
}
