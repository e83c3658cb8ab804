package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"sqlshare/internal/catalog"
	"sqlshare/internal/history"
	"sqlshare/internal/obs"
	"sqlshare/internal/server"
	"sqlshare/internal/wal"
)

// host is one in-process server on a loopback port.
type host struct {
	cat   *catalog.Catalog
	srv   *server.Server
	dur   *catalog.Durability
	dir   string // data directory of a durable host
	hs    *http.Server
	done  chan struct{}
	base  string
	setup time.Duration
	// rows is each set-up dataset's ingested row count by "owner.name".
	rows map[string]int
	// layers is the traced run's instrumentation; nil when untraced.
	layers *layerProbe
}

// startHost builds a server configured as cmd/sqlshare-server configures
// it with its default flags (on a durable catalog under scratch when
// durable), serves it on a loopback port, and runs the scenario's set-up
// through REST. The returned host's setup field is the time from server
// construction to the end of set-up.
func startHost(ctx context.Context, sc *scenario, durable bool, scratch string, probe *layerProbe) (*host, error) {
	start := time.Now()
	h := &host{rows: map[string]int{}, layers: probe, done: make(chan struct{})}
	// The server's request log is formatted as usual but discarded: a
	// closed loop at thousands of requests per second would flood stderr.
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	if durable {
		dir, err := os.MkdirTemp(scratch, "durable-")
		if err != nil {
			return nil, err
		}
		h.dir = dir
		h.cat, h.dur, err = catalog.OpenDurable(dir, &catalog.DurableOptions{
			SyncMode:          wal.SyncGroup,
			CheckpointEvery:   5 * time.Minute,
			CheckpointRecords: 10000,
			Logger:            logger,
		})
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("open durable catalog: %w", err)
		}
		if probe != nil {
			h.cat.SetJournal(probe.journal(h.dur))
		}
	} else {
		h.cat = catalog.New()
	}
	h.srv = server.New(h.cat)
	h.srv.SetLogger(logger)
	h.srv.SetMaxRows(0)
	h.srv.SetMaxQueryBytes(0)
	h.srv.SetTracing(true)
	h.srv.SetParallelism(0)
	h.srv.ConfigureTraces(obs.TraceConfig{Slow: obs.DefaultTraceSlow})
	if h.dur != nil {
		h.srv.SetDurability(h.dur)
		if err := h.srv.EnableReplication(); err != nil {
			h.close()
			return nil, err
		}
	}
	h.srv.ConfigureCache(64<<20, 0)
	if err := h.srv.ConfigureHistory(history.Config{
		LogMaxBytes: history.DefaultLogMaxBytes,
		LogKeep:     history.DefaultLogKeep,
		SessionGap:  history.DefaultSessionGap,
	}); err != nil {
		h.close()
		return nil, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.close()
		return nil, err
	}
	var handler http.Handler = h.srv
	if probe != nil {
		handler = probe.wrap(h.srv)
	}
	h.hs = &http.Server{Handler: handler}
	h.base = "http://" + ln.Addr().String()
	go func() {
		defer close(h.done)
		if err := h.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
		}
	}()

	c := &client{base: h.base, hc: newHTTPClient(2)}
	defer c.hc.CloseIdleConnections()
	if err := h.provision(ctx, c, sc); err != nil {
		h.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	h.setup = time.Since(start)
	return h, nil
}

// provision creates the scenario's users and set-up datasets over REST.
func (h *host) provision(ctx context.Context, c *client, sc *scenario) error {
	for _, u := range sc.Users {
		if err := c.createUser(ctx, u); err != nil {
			return err
		}
	}
	for _, d := range sc.Setup {
		n, err := c.upload(ctx, d.User, d.Name, d.Data)
		if err != nil {
			return err
		}
		h.rows[d.User+"."+d.Name] = n
		if d.Public {
			if err := c.makePublic(ctx, d.User, d.Name); err != nil {
				return err
			}
		}
	}
	return nil
}

// close stops the listener, waits for the serving goroutine, and releases
// the history, the WAL and the data directory.
func (h *host) close() {
	if h.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = h.hs.Shutdown(ctx)
		cancel()
		<-h.done
	}
	if h.srv != nil {
		_ = h.srv.Close()
	}
	if h.dur != nil {
		_ = h.dur.Close()
	}
	if h.dir != "" {
		os.RemoveAll(h.dir)
	}
}
