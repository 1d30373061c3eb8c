package main

// The in-process coordinator both distributed workloads run against:
// a cold on-disk store, a Runner, campaignd's Server behind the HTTP
// tap, a loopback listener and a handshaken client.

import (
	"context"
	"net"
	"net/http"

	"sharedicache/internal/campaignd"
	"sharedicache/internal/experiments"
	"sharedicache/internal/runstore"
	"sharedicache/internal/tracing"
)

type coordinator struct {
	store    *runstore.Store
	storeTap *storeTap // non-nil when traced: the Runner's view of store
	runner   *experiments.Runner
	srv      *campaignd.Server
	httpTap  *httpTap
	client   *campaignd.Client
	url      string

	hs     *http.Server
	served chan struct{}
}

// startCoordinator opens a cold store in dir and serves points (none
// for a serving coordinator) on a loopback port. It returns once a
// handshake has succeeded. onPut observes every durable store write.
func startCoordinator(ctx context.Context, tr *tracing.Tracer, dir string, opts experiments.Options, points func(*experiments.Runner) []experiments.Point, onPut func(string)) (*coordinator, error) {
	c := &coordinator{}
	var err error
	if c.store, err = runstore.Open(dir); err != nil {
		return nil, err
	}
	if c.runner, err = experiments.NewRunner(opts); err != nil {
		return nil, err
	}
	if tr != nil {
		c.storeTap = &storeTap{inner: c.store, tr: tr}
		c.runner.SetStore(c.storeTap)
	} else {
		c.runner.SetStore(c.store)
	}
	var plan []experiments.Point
	if points != nil {
		plan = points(c.runner)
	}
	_, span := tr.Start(ctx, "campaignd.new")
	c.srv, err = campaignd.New(campaignd.ServerConfig{Runner: c.runner, Store: c.store, Points: plan})
	span.End()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.url = "http://" + ln.Addr().String()
	c.httpTap = newHTTPTap(c.srv.Handler(), tr, onPut)
	c.hs = &http.Server{Handler: c.httpTap}
	c.served = make(chan struct{})
	go func() {
		defer close(c.served)
		c.hs.Serve(ln)
	}()
	if c.client, err = campaignd.NewClient(c.url); err != nil {
		c.close()
		return nil, err
	}
	if _, err := c.client.Campaign(ctx); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// close stops the HTTP server and waits for its serve loop to return.
func (c *coordinator) close() {
	c.hs.Close()
	<-c.served
}

// queueWait is the mean dispatch queue wait from Server.Metrics().
func (c *coordinator) queueWait() (sum, count float64) {
	for _, f := range c.srv.Metrics().Snapshot() {
		if f.Name == "campaignd_queue_wait_seconds" {
			for _, s := range f.Series {
				sum += s.Sum
				count += s.Value
			}
		}
	}
	return sum, count
}
