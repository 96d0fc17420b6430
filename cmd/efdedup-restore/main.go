// Command efdedup-restore downloads a stream previously deduplicated into
// the central cloud store, reassembling it from its manifest and verifying
// every chunk's content address. The cloud assembles the stream a page
// of chunks at a time, one request per page, and -read-ahead pages are in
// flight — memory use is bounded by them, not by the file — and the
// output file is installed atomically, so an interrupted restore never
// leaves a half-written file at -out.
//
// Usage:
//
//	efdedup-restore -cloud cloud:7080 -name edge-0/file-3 -out restored.bin
//	efdedup-restore -cloud cloud:7080 -stats            # (show store stats)
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"efdedup/internal/cloudstore"
	"efdedup/internal/reclog"
	"efdedup/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		cloudAddr = flag.String("cloud", "127.0.0.1:7080", "central cloud store address")
		name      = flag.String("name", "", "manifest name to restore")
		out       = flag.String("out", "", "output path ('-' or empty writes to stdout)")
		stats     = flag.Bool("stats", false, "print store statistics instead of restoring")
		timeout   = flag.Duration("timeout", 5*time.Minute, "overall deadline")
		readAhead = flag.Int("read-ahead", cloudstore.DefaultRestoreReadAhead, "pages in flight")
	)
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	client, err := cloudstore.Dial(ctx, transport.TCPNetwork{}, *cloudAddr)
	if err != nil {
		return err
	}
	defer client.Close()

	if *stats {
		st, err := client.FetchStats(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("unique chunks: %d (%d bytes)\nlogical bytes: %d\nraw uploads:   %d\nmanifests:     %d\ncontainers:    %d sealed (%d duplicated bytes)\n",
			st.UniqueChunks, st.UniqueBytes, st.LogicalBytes, st.RawUploads, st.Manifests, st.ContainersSealed, st.DuplicatedBytes)
		return nil
	}
	if *name == "" {
		return fmt.Errorf("need -name (or -stats); usage: efdedup-restore -name <manifest>")
	}
	opts := cloudstore.RestoreOptions{ReadAhead: *readAhead}

	if *out == "" || *out == "-" {
		_, err := client.RestoreTo(ctx, *name, os.Stdout, opts)
		return err
	}
	st, err := restoreToFile(ctx, client, *name, *out, opts)
	if err != nil {
		return err
	}
	log.Printf("restored %s: %d bytes in %d chunks, %d pages, %d containers read by the cloud, %d bytes fetched (%.2fx restored), all chunks verified",
		*name, st.Bytes, st.Chunks, st.Pages, st.ContainersTouched,
		st.FetchedBytes, float64(st.FetchedBytes)/float64(max(st.Bytes, 1)))
	return nil
}

// restoreToFile streams the restore into -out through an atomic install,
// so -out is either absent, the old file, or a complete verified restore.
func restoreToFile(ctx context.Context, client *cloudstore.Client, name, out string, opts cloudstore.RestoreOptions) (st cloudstore.RestoreStats, err error) {
	err = reclog.WriteFileAtomic(out, func(w *bufio.Writer) error {
		st, err = client.RestoreTo(ctx, name, w, opts)
		return err
	})
	return st, err
}
