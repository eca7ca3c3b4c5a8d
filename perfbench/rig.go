package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"boedag/internal/fleet"
	"boedag/internal/serve"
)

// rig is one set-up of the system under test: a server, or a fleet of
// servers behind fleet nodes, each on its own loopback listener.
type rig struct {
	servers []*serve.Server
	nodes   []*fleet.Node // nil for a single server
	ids     []string      // the nodes' ring IDs
	urls    []string
	https   []*httptest.Server
	client  *http.Client // the load client
	forward *http.Client // the fleet nodes' forwarding client
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        4 * conns * fleetSize,
		MaxIdleConnsPerHost: 2 * conns,
		DisableCompression:  true,
	}}
}

func newServer() (*serve.Server, error) {
	return serve.New(serve.Config{CacheMaxEntries: cacheEntries})
}

// newRig constructs the servers (and ring) of a workload, the way
// boedagbench -inprocess does: httptest loopback listeners in front of
// each handler.
func newRig(w *workload) (*rig, error) {
	r := &rig{client: newClient()}
	if !w.fleet {
		s, err := newServer()
		if err != nil {
			return nil, err
		}
		ts := httptest.NewServer(s.Handler())
		r.servers, r.https, r.urls = []*serve.Server{s}, []*httptest.Server{ts}, []string{ts.URL}
		return r, nil
	}
	dir := fleet.NewMutableDirectory()
	peers := make([]string, fleetSize)
	for i := range peers {
		peers[i] = fmt.Sprintf("node%d", i)
	}
	r.ids = peers
	r.forward = newClient()
	r.forward.Timeout = 30 * time.Second
	for _, id := range peers {
		s, err := newServer()
		if err != nil {
			r.close()
			return nil, err
		}
		node, err := fleet.NewNode(s, fleet.Config{NodeID: id, Peers: peers, Directory: dir, Client: r.forward})
		if err != nil {
			r.close()
			return nil, err
		}
		ts := httptest.NewServer(node.Handler())
		dir.Set(id, ts.URL)
		r.servers = append(r.servers, s)
		r.nodes = append(r.nodes, node)
		r.https = append(r.https, ts)
		r.urls = append(r.urls, ts.URL)
	}
	return r, nil
}

// target is the entry URL of request i: round-robin over the fleet.
func (r *rig) target(i int) string { return r.urls[i%len(r.urls)] + "/v1/estimate" }

func (r *rig) close() {
	r.client.CloseIdleConnections()
	if r.forward != nil {
		r.forward.CloseIdleConnections()
	}
	for _, ts := range r.https {
		ts.Close()
	}
}

// post sends one estimate request and reads the whole response into buf.
func post(ctx context.Context, c *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	return resp.StatusCode, err
}

// sample is one request's latency and its completion time, measured
// from the start of the window.
type sample struct{ lat, done time.Duration }

// sendAll issues body(i) for i < n to target(i) with conns closed-loop
// workers and calls check on every response (status 0 = transport
// error). It returns each request's sample and the window's length.
func (r *rig) sendAll(ctx context.Context, n int, body func(i int) []byte,
	check func(i, status int, body []byte) bool) (samples []sample, failed int64, elapsed time.Duration) {
	samples = make([]sample, n)
	var next, bad atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				t0 := time.Now()
				status, err := post(ctx, r.client, r.target(i), body(i), &buf)
				t1 := time.Now()
				samples[i] = sample{lat: t1.Sub(t0), done: t1.Sub(start)}
				if err != nil {
					status = 0
				}
				if !check(i, status, buf.Bytes()) {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return samples, bad.Load(), time.Since(start)
}
