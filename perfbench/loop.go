package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// errExhausted reports a stream shorter than the window: the run would
// otherwise measure an idle server.
var errExhausted = errors.New("op stream exhausted before the window ended; lengthen the stream")

// queryExec is one execution of a query op.
type queryExec struct {
	user, sql, tpl string
	id             string // job id; empty when the submit failed
	start, end     time.Duration
	ok             bool
}

// writeExec is one upload or append op.
type writeExec struct {
	kind               opKind
	user, name, target string
	data               []byte
	rows               int // rows the server reported ingesting
	start, end         time.Duration
	ok                 bool
}

// clientLog is what one closed-loop client records; clients merge theirs
// after the window, so the loop itself shares nothing but the stream.
type clientLog struct {
	queryMs, writeMs []float64
	completed        int // ops finished inside the window
	attempted        int
	failed           int
	errs             []string
	ops              map[opKind]int
	cache            map[string]int // status "cache" field of finished queries
	last             map[string]*queryExec
	queries          int // query executions, for distinct fractions
	writes           []*writeExec
	// opTime and reqTime feed trace.unattributed_frac (traced runs only).
	opTime, reqTime time.Duration
	reqs            int
}

func newClientLog() *clientLog {
	return &clientLog{ops: map[opKind]int{}, cache: map[string]int{}, last: map[string]*queryExec{}}
}

func (l *clientLog) fail(err error) {
	l.failed++
	if len(l.errs) < 5 {
		l.errs = append(l.errs, err.Error())
	}
}

func (l *clientLog) merge(o *clientLog) {
	l.queryMs = append(l.queryMs, o.queryMs...)
	l.writeMs = append(l.writeMs, o.writeMs...)
	l.completed += o.completed
	l.attempted += o.attempted
	l.failed += o.failed
	l.errs = append(l.errs, o.errs...)
	for k, v := range o.ops {
		l.ops[k] += v
	}
	for k, v := range o.cache {
		l.cache[k] += v
	}
	for k, e := range o.last {
		if cur, ok := l.last[k]; !ok || e.start > cur.start {
			l.last[k] = e
		}
	}
	l.queries += o.queries
	l.writes = append(l.writes, o.writes...)
	l.opTime += o.opTime
	l.reqTime += o.reqTime
	l.reqs += o.reqs
}

// window is the outcome of one timed closed-loop window.
type window struct {
	clientLog
	seconds float64
	clients int
}

// runWindow replays the scenario's stream against h from one closed-loop
// client per CPU for d: each client sends its next operation only when the
// previous one reached a terminal status. Operations started inside the
// window run to completion; throughput counts those finished inside it.
func runWindow(ctx context.Context, h *host, sc *scenario, d time.Duration, traced bool) (*window, error) {
	n := runtime.NumCPU()
	hc := newHTTPClient(n + 1)
	defer hc.CloseIdleConnections()
	logs := make([]*clientLog, n)
	var exhausted atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for i := range logs {
		logs[i] = newClientLog()
		c := &client{base: h.base, hc: hc}
		if traced {
			c.reqTime, c.reqs = &logs[i].reqTime, &logs[i].reqs
		}
		wg.Add(1)
		go func(l *clientLog) {
			defer wg.Done()
			for time.Since(start) < d && ctx.Err() == nil {
				o, ok := sc.take()
				if !ok {
					exhausted.Store(true)
					return
				}
				runOp(ctx, c, o, start, d, l)
			}
		}(logs[i])
	}
	wg.Wait()
	if exhausted.Load() {
		return nil, errExhausted
	}
	w := &window{clientLog: *newClientLog(), seconds: d.Seconds(), clients: n}
	for _, l := range logs {
		w.merge(l)
	}
	// Record order depends on scheduling; sort so every later pass walks
	// the same order.
	sort.Slice(w.writes, func(i, j int) bool { return w.writes[i].start < w.writes[j].start })
	return w, ctx.Err()
}

// runOp executes one operation and records its latency and outcome.
func runOp(ctx context.Context, c *client, o op, start time.Time, d time.Duration, l *clientLog) {
	t0 := time.Since(start)
	var err error
	switch o.Kind {
	case opQuery:
		var st jobStatus
		st, err = c.query(ctx, o.User, o.SQL)
		l.queries++
		e := &queryExec{user: o.User, sql: o.SQL, tpl: o.Tpl, id: st.ID, start: t0, ok: err == nil}
		e.end = time.Since(start)
		if err == nil {
			l.cache[st.Cache]++
		}
		key := o.User + "\x00" + o.SQL
		if cur, ok := l.last[key]; !ok || e.start > cur.start {
			l.last[key] = e
		}
		l.queryMs = append(l.queryMs, ms(e.end-t0))
	case opUpload, opAppend:
		w := &writeExec{kind: o.Kind, user: o.User, name: o.Name, target: o.Target, data: o.Data, start: t0}
		w.rows, err = c.upload(ctx, o.User, o.Name, o.Data)
		if err == nil && o.Kind == opAppend {
			err = c.appendTo(ctx, o.User, o.Target, o.Name)
		}
		w.end = time.Since(start)
		w.ok = err == nil
		l.writes = append(l.writes, w)
		l.writeMs = append(l.writeMs, ms(w.end-t0))
	}
	end := time.Since(start)
	l.attempted++
	l.ops[o.Kind]++
	if err != nil {
		l.fail(fmt.Errorf("%s as %s: %w", o.Kind, o.User, err))
	} else if end <= d {
		l.completed++
	}
	if c.reqTime != nil { // the client adds its requests' time to l.reqTime
		l.opTime += end - t0
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
