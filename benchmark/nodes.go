package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"supersim/internal/cluster"
	"supersim/internal/server"
)

// simdNode is one in-process simd: a journaled server.Server behind a
// real loopback listener, assembled the way cmd/simd does it.
type simdNode struct {
	srv *server.Server
	hs  *http.Server
	url string

	serveDone chan struct{}
}

// startSimd boots a server on 127.0.0.1:0 with its data dir under dir.
func startSimd(dir string, cfg server.Config) (*simdNode, error) {
	cfg.DataDir = dir
	srv, err := server.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("booting simd: %w", err)
	}
	hs, url, done, err := serveLoopback(srv.Handler())
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	return &simdNode{srv: srv, hs: hs, url: url, serveDone: done}, nil
}

// stop drains the server and closes the listener, returning once the
// serve goroutine has exited.
func (n *simdNode) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = n.srv.Shutdown(ctx)
	_ = n.hs.Shutdown(ctx)
	<-n.serveDone
}

// serveLoopback serves h on an ephemeral loopback port.
func serveLoopback(h http.Handler) (*http.Server, string, chan struct{}, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, fmt.Errorf("listening on loopback: %w", err)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	return hs, "http://" + ln.Addr().String(), done, nil
}

const clusterKey = "benchmark-cluster-key"

// clusterNodes is an in-process simcoord fronting journaled workers that
// joined through cluster.Agent, all on loopback.
type clusterNodes struct {
	coord     *cluster.Coordinator
	hs        *http.Server
	url       string
	serveDone chan struct{}
	workers   []*simdNode

	stopAgents context.CancelFunc
	agents     sync.WaitGroup
}

// startCluster boots a coordinator (default 250 ms poll, 2 s heartbeat)
// and nWorkers workers, and returns once every worker is live on the ring.
func startCluster(dir string, nWorkers int) (*clusterNodes, error) {
	coord, err := cluster.New(cluster.Config{Key: clusterKey, DataDir: filepath.Join(dir, "coord")})
	if err != nil {
		return nil, fmt.Errorf("booting coordinator: %w", err)
	}
	hs, url, done, err := serveLoopback(coord.Handler())
	if err != nil {
		coord.Shutdown()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &clusterNodes{coord: coord, hs: hs, url: url, serveDone: done, stopAgents: cancel}
	for i := 0; i < nWorkers; i++ {
		name := fmt.Sprintf("w%d", i+1)
		node, err := startSimd(filepath.Join(dir, name), server.Config{Pool: 2, ClusterKey: clusterKey})
		if err != nil {
			c.stop()
			return nil, err
		}
		c.workers = append(c.workers, node)
		agent := &cluster.Agent{Coordinator: url, Key: clusterKey, Name: name, URL: node.url}
		c.agents.Add(1)
		go func() {
			defer c.agents.Done()
			_ = agent.Run(ctx) // returns only on cancellation
		}()
	}
	probe := newAPIClient(url)
	defer probe.close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var h cluster.Health
		if _, err := probe.do(http.MethodGet, "/healthz", nil, &h); err == nil && h.Live >= nWorkers {
			return c, nil
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("cluster: %d workers did not register within 10s", nWorkers)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (c *clusterNodes) stop() {
	c.stopAgents()
	c.agents.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = c.hs.Shutdown(ctx)
	<-c.serveDone
	c.coord.Shutdown()
	for _, w := range c.workers {
		w.stop()
	}
}

// scratch hands out fresh directories under one root inside the
// benchmark's output directory, so every byte the servers journal stays
// inside the checkout, and removes them all at the end of the run.
type scratch struct {
	root string
	n    int
}

func newScratch(outDir, workload string) (*scratch, error) {
	if err := os.MkdirAll(filepath.Join(outDir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(filepath.Join(outDir, "tmp"), workload+"-")
	if err != nil {
		return nil, err
	}
	return &scratch{root: root}, nil
}

func (s *scratch) dir() string {
	s.n++
	return filepath.Join(s.root, fmt.Sprintf("d%03d", s.n))
}

func (s *scratch) remove() { _ = os.RemoveAll(s.root) }
