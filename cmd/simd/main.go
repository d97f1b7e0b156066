// Command simd is the simulation-as-a-service daemon: it serves the
// paper's simulator over HTTP. Jobs are JSON workload specs (algorithm,
// tile counts, scheduler policy, duration model, seeds, optional fault
// plan) run on a bounded worker pool with admission control; repeated
// workloads are answered through the capture cache and the replay fast
// path without touching the scheduler.
//
// Usage:
//
//	go run ./cmd/simd -addr 127.0.0.1:8080 -data-dir /var/lib/simd
//
// Endpoints:
//
//	POST /jobs            submit a job spec, returns 202 + job document
//	GET  /jobs            list retained jobs
//	GET  /jobs/{id}       poll one job
//	GET  /jobs/{id}/trace      virtual trace as JSON
//	GET  /jobs/{id}/trace.svg  virtual trace as an SVG Gantt chart
//	POST   /crons         register a recurring job template
//	GET    /crons         list recurring templates
//	GET    /crons/{id}    poll one template
//	DELETE /crons/{id}    remove a template
//	GET  /healthz         liveness and drain state
//	GET  /metrics         job/tenant/store/cache/latency counters
//
// With -data-dir, acknowledged jobs are journaled (fsync-on-accept) and
// recovered exactly once after a crash or restart. With -tenants-file,
// submissions are authenticated by API key and subject to per-tenant rate
// limits, queue shares and DRR fairness weights.
//
// SIGINT/SIGTERM drain gracefully: in-flight jobs complete, queued jobs
// are re-queued into the journal (or rejected as retryable without one),
// then the HTTP listener closes. A SIGKILL converges to the same state on
// the next boot via journal recovery.
//
// With -coordinator (plus -cluster-key), simd additionally joins a
// simcoord cluster: it registers itself, heartbeats on a jittered
// interval, tells the coordinator (at the -coordinator URL) when a job it
// was handed has ended, and serves captured DAG frames to authenticated
// peers over GET /internal/frames so repeat jobs rerouted by the
// coordinator skip re-capture.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"supersim/internal/cluster"
	"supersim/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using :0)")
	pool := flag.Int("pool", 2, "concurrent job runners")
	queueDepth := flag.Int("queue", 64, "submission queue depth (admission control bound)")
	deadline := flag.Duration("deadline", 60*time.Second, "default per-job wall-clock deadline")
	cacheCap := flag.Int("cache", 64, "capture cache capacity per tenant (DAG count)")
	retain := flag.Int("retain", 256, "finished jobs retained for polling")
	dataDir := flag.String("data-dir", "", "journal directory; empty = in-memory only (no crash recovery)")
	tenantsFile := flag.String("tenants-file", "", "JSON tenants file (API keys, rate limits, queue shares, weights)")
	retryMax := flag.Int("retry-max", 2, "backoff re-runs for transiently failed jobs before dead-letter (negative disables)")
	retryBase := flag.Duration("retry-base", 250*time.Millisecond, "first retry backoff (doubles per attempt, jittered)")
	compactEvery := flag.Int("compact-every", 256, "journal finish records between compactions")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "max wait for in-flight jobs at shutdown")
	coordinator := flag.String("coordinator", "", "simcoord base URL; empty = standalone (no cluster)")
	clusterKey := flag.String("cluster-key", "", "shared cluster secret (required with -coordinator; enables the peer frame endpoint)")
	workerName := flag.String("worker-name", "", "stable worker identity on the ring (default: hostname)")
	advertiseURL := flag.String("advertise-url", "", "URL peers and the coordinator reach this worker at (default: http://<bound addr>)")
	flag.Parse()

	if *coordinator != "" && *clusterKey == "" {
		log.Fatal("simd: -coordinator requires -cluster-key")
	}

	cfg := server.Config{
		Pool:          *pool,
		QueueDepth:    *queueDepth,
		JobDeadline:   *deadline,
		CacheCapacity: *cacheCap,
		RetainJobs:    *retain,
		DataDir:       *dataDir,
		RetryMax:      *retryMax,
		RetryBase:     *retryBase,
		CompactEvery:  *compactEvery,
		ClusterKey:    *clusterKey,
	}
	if *tenantsFile != "" {
		tenants, err := server.LoadTenants(*tenantsFile)
		if err != nil {
			log.Fatalf("simd: %v", err)
		}
		cfg.Tenants = tenants
		log.Printf("simd: %d tenants loaded from %s", len(tenants), *tenantsFile)
	}

	srv, err := server.New(cfg)
	if err != nil {
		log.Fatalf("simd: %v", err)
	}
	if requeued, restored := srv.Recovered(); requeued > 0 || restored > 0 {
		log.Printf("simd: recovered from %s: %d jobs re-queued, %d finished jobs restored", *dataDir, requeued, restored)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("simd: listen %s: %v", *addr, err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			log.Fatalf("simd: writing addr file: %v", err)
		}
	}
	log.Printf("simd: serving on %s (pool=%d queue=%d deadline=%v durable=%v)", bound, *pool, *queueDepth, *deadline, *dataDir != "")

	agentCtx, agentStop := context.WithCancel(context.Background())
	defer agentStop()
	if *coordinator != "" {
		name := *workerName
		if name == "" {
			if host, err := os.Hostname(); err == nil && host != "" {
				name = host
			} else {
				name = bound
			}
		}
		selfURL := *advertiseURL
		if selfURL == "" {
			selfURL = "http://" + bound
		}
		agent := &cluster.Agent{
			Coordinator: *coordinator,
			Key:         *clusterKey,
			Name:        name,
			URL:         selfURL,
		}
		log.Printf("simd: joining cluster at %s as %q (%s)", *coordinator, name, selfURL)
		go func() {
			if err := agent.Run(agentCtx); err != nil && agentCtx.Err() == nil {
				log.Printf("simd: cluster agent: %v", err)
			}
		}()
	}

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("simd: %v: draining (in-flight jobs complete, queued jobs are re-queued)", sig)
		agentStop() // stop heartbeating so the coordinator fails over promptly
	case err := <-errCh:
		log.Fatalf("simd: serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("simd: %v", err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("simd: http shutdown: %v", err)
	}
	m := srv.Metrics()
	fmt.Printf("simd: drained: %d done, %d failed, %d dead, %d rejected; cache %d hits / %d misses / %d captures; journal seq %d\n",
		m.Jobs.Done, m.Jobs.Failed, m.Jobs.Dead, m.Jobs.Rejected, m.Cache.Hits, m.Cache.Misses, m.Cache.Captures, m.Store.Seq)
}
