// Command simcoord is the cluster coordinator for a fleet of simd
// workers. Workers register and heartbeat; jobs submitted here are
// routed by consistent hashing on the capture-cache key, so a repeated
// workload lands on the worker that already holds its DAG frame.
// Sweeps are fanned across workers as slices of their points, whose
// merged curve is bit-identical to a single-node run; a worker says when
// its part is done and the coordinator fetches the result at once, the
// poll tick being only the backstop. When a worker stops heartbeating,
// its unfinished parts are re-dispatched onto the ring; fingerprints
// dedupe any late completion from the presumed-dead worker.
//
// Usage:
//
//	go run ./cmd/simcoord -addr 127.0.0.1:9090 -cluster-key secret
//
// Endpoints:
//
//	POST /cluster/register   worker joins the ring (X-Cluster-Key)
//	POST /cluster/heartbeat  worker liveness (X-Cluster-Key)
//	POST /cluster/done       worker's hint that a part ended (X-Cluster-Key)
//	POST /jobs               submit a job spec, returns 202 + dispatch
//	GET  /jobs               list dispatches
//	GET  /jobs/{id}          poll one dispatch
//	GET  /metrics            fleet-aggregated counters and latencies
//	GET  /healthz            liveness and worker counts
//
// With -data-dir, dispatches live in the workers' journaled job store
// under <data-dir>/cluster/: accepted ones are fsynced before the 202 and
// re-dispatched exactly once after a coordinator restart, finished ones
// come back with their fingerprints.
package main

import (
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"supersim/internal/cluster"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9090", "listen address (use :0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using :0)")
	key := flag.String("cluster-key", "", "shared cluster secret (required)")
	dataDir := flag.String("data-dir", "", "dispatch journal directory; empty = in-memory only")
	beat := flag.Duration("heartbeat", 2*time.Second, "heartbeat interval advertised to workers")
	timeout := flag.Duration("heartbeat-timeout", 0, "silence before a worker is declared dead (default 4x heartbeat)")
	poll := flag.Duration("poll", 250*time.Millisecond, "tracker backstop tick: dead-worker detection, send retries, lost done hints")
	flag.Parse()

	c, err := cluster.New(cluster.Config{
		Key:               *key,
		DataDir:           *dataDir,
		HeartbeatInterval: *beat,
		HeartbeatTimeout:  *timeout,
		PollInterval:      *poll,
	})
	if err != nil {
		log.Fatalf("simcoord: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("simcoord: listen %s: %v", *addr, err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			log.Fatalf("simcoord: writing addr file: %v", err)
		}
	}
	log.Printf("simcoord: serving on %s (heartbeat=%v durable=%v)", bound, *beat, *dataDir != "")

	hs := &http.Server{
		Handler:           c.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("simcoord: %v: shutting down", sig)
	case err := <-errCh:
		log.Fatalf("simcoord: serve: %v", err)
	}
	if err := hs.Close(); err != nil {
		log.Printf("simcoord: http close: %v", err)
	}
	c.Shutdown()
	m := c.Metrics()
	log.Printf("simcoord: stopped: %d dispatched, %d failovers, %d deduped", m.Dispatched, m.Failovers, m.Deduped)
}
