package kvstore

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"efdedup/internal/transport"
)

// TestConcurrentCoordinators: several coordinators hammer the same ring
// concurrently (the shape of multiple agents sharing D2-ring index nodes);
// every written key must resolve afterwards and the store must agree with
// a sequential oracle.
func TestConcurrentCoordinators(t *testing.T) {
	nw := transport.NewMemNetwork()
	addrs := testRing(t, nw, 4)

	const (
		coordinators  = 4
		keysPerWorker = 60
	)
	var wg sync.WaitGroup
	errCh := make(chan error, coordinators)
	for w := 0; w < coordinators; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := NewCluster(ClusterConfig{
				Members:           addrs,
				ReplicationFactor: 2,
				WriteConsistency:  All,
				LocalAddr:         addrs[w%len(addrs)],
				Network:           nw,
			})
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			ctx := context.Background()
			for i := 0; i < keysPerWorker; i++ {
				key := []byte(fmt.Sprintf("w%d-key-%03d", w, i))
				if err := put(ctx, c, key, []byte("v")); err != nil {
					errCh <- err
					return
				}
				// Interleave membership probes with the writes.
				if ok, err := has(ctx, c, key); err != nil || !ok {
					errCh <- fmt.Errorf("probe-own-write %s: found %v, err %v", key, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// A fresh coordinator sees every key.
	c, err := NewCluster(ClusterConfig{Members: addrs, ReplicationFactor: 2, Network: nw})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var keys [][]byte
	for w := 0; w < coordinators; w++ {
		for i := 0; i < keysPerWorker; i++ {
			keys = append(keys, []byte(fmt.Sprintf("w%d-key-%03d", w, i)))
		}
	}
	found, err := c.BatchHas(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range found {
		if !ok {
			t.Errorf("key %s lost under concurrency", keys[i])
		}
	}
}
