package main

import (
	"context"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"

	"sqlshare/internal/catalog"
	"sqlshare/internal/ingest"
	"sqlshare/internal/loadgen"
	"sqlshare/internal/plan"
	"sqlshare/internal/sqlparser"
	"sqlshare/internal/synth"
	"sqlshare/internal/wal"
)

// The traced run times calls into each module's public functions from
// the benchmark's own code; nothing inside the program is instrumented.

// layerProbe collects the traced run's timings at the REST boundary and
// around the WAL journal.
type layerProbe struct {
	mu        sync.Mutex
	routeMs   map[string][]float64
	respBytes map[string]int64
	handler   time.Duration // summed handler time of every request
	walMs     []float64
}

func newLayerProbe() *layerProbe {
	return &layerProbe{routeMs: map[string][]float64{}, respBytes: map[string]int64{}}
}

// route names the REST call a request makes.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == "POST" && p == "/api/queries":
		return "submit"
	case r.Method == "GET" && strings.HasPrefix(p, "/api/queries/"):
		return "status"
	case r.Method == "POST" && p == "/api/staging":
		return "stage"
	case r.Method == "POST" && p == "/api/datasets":
		return "create"
	case r.Method == "POST" && strings.HasSuffix(p, "/append"):
		return "append"
	}
	return "other"
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// wrap times every request the server's handler serves, by route.
func (p *layerProbe) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w}
		t0 := time.Now()
		next.ServeHTTP(cw, r)
		d := time.Since(t0)
		rt := route(r)
		p.mu.Lock()
		p.routeMs[rt] = append(p.routeMs[rt], ms(d))
		p.respBytes[rt] += cw.n
		p.handler += d
		p.mu.Unlock()
	})
}

// timedJournal times each WAL append (fsync wait included) of the
// durability journal it wraps.
type timedJournal struct {
	inner catalog.Journal
	p     *layerProbe
}

func (j *timedJournal) Append(rec *wal.Record) error {
	t0 := time.Now()
	err := j.inner.Append(rec)
	d := time.Since(t0)
	j.p.mu.Lock()
	j.p.walMs = append(j.p.walMs, ms(d))
	j.p.mu.Unlock()
	return err
}

func (p *layerProbe) journal(d *catalog.Durability) catalog.Journal {
	return &timedJournal{inner: d, p: p}
}

// procSample is a process-wide reading taken at the window's edges.
type procSample struct {
	cpu       time.Duration // user + system CPU of the process
	gcCPU     float64       // runtime/metrics GC CPU seconds
	busyCPU   float64       // runtime/metrics total minus idle CPU seconds
	allocs    uint64
	server    map[string]float64 // the server's /metrics
	goroutine int
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func sampleProcess(ctx context.Context, h *host) (procSample, error) {
	s := procSample{goroutine: runtime.NumGoroutine()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	ms := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		ms[i].Name = n
	}
	metrics.Read(ms)
	s.gcCPU = ms[0].Value.Float64()
	s.busyCPU = ms[1].Value.Float64() - ms[2].Value.Float64()
	s.allocs = ms[3].Value.Uint64()
	req, err := http.NewRequestWithContext(ctx, "GET", h.base+"/metrics", nil)
	if err != nil {
		return s, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return s, err
	}
	s.server = loadgen.ParseMetrics(string(body))
	return s, nil
}

// templates are the SQLShare query templates engine time is split by.
var templates = []synth.Template{
	synth.TplFilter, synth.TplAggregate, synth.TplJoin, synth.TplWindow,
	synth.TplTop, synth.TplUnion, synth.TplSubquery, synth.TplBinning,
	synth.TplString, synth.TplGeo, synth.TplDate, synth.TplNested,
	synth.TplComplex, synth.TplLong,
}

// replayCap bounds how many distinct queries the quiescent replay times
// the cached, explain, parse and extract paths on.
const replayCap = 400

// layerMetrics derives the per-layer metrics of a traced window. before
// and after bracket the window; ck holds the uncached reference runs;
// checkpoint is the forced checkpoint's time (0 without a WAL);
// untracedTput is the throughput of the untraced window of the same run.
func layerMetrics(h *host, w *window, before, after procSample, ck *checks,
	checkpoint time.Duration, untracedTput float64) *metricSet {
	p := h.layers
	m := &metricSet{}
	ops := float64(w.attempted)
	queries := float64(w.ops[opQuery])
	delta := func(name string) float64 { return after.server[name] - before.server[name] }

	// server: handler time per route, as the wrapper around the
	// server.New handler saw it.
	m.pct("server.status_p50_ms", p.routeMs["status"], 0.5, "ms")
	m.pct("server.status_p99_ms", p.routeMs["status"], 0.99, "ms")
	for _, rt := range []string{"submit", "stage", "create", "append"} {
		m.add("server."+rt+"_ms", median(p.routeMs[rt]), "ms", len(p.routeMs[rt]))
	}
	m.add("server.resp_bytes_per_query",
		ratio(float64(p.respBytes["submit"]+p.respBytes["status"]), queries), "B", int(queries))
	m.add("server.transport_ms", ratio(ms(w.reqTime-p.handler), float64(w.reqs)), "ms", w.reqs)

	// catalog, sqlparser, plan, engine: the uncached reference runs of
	// the check pass, then a quiescent replay of the distinct queries.
	var uncached []float64
	for _, u := range ck.uncached {
		uncached = append(uncached, u.ms)
	}
	m.pct("catalog.query_uncached_p50_ms", uncached, 0.5, "ms")
	m.pct("catalog.query_uncached_p99_ms", uncached, 0.99, "ms")
	hitUs, explainUs, parseUs, extractUs, execByTpl := replay(h.cat, ck.uncached)
	m.add("catalog.query_hit_us", median(hitUs), "us", len(hitUs))
	m.add("catalog.explain_us", median(explainUs), "us", len(explainUs))
	m.add("sqlparser.parse_us", median(parseUs), "us", len(parseUs))
	m.add("plan.extract_us", median(extractUs), "us", len(extractUs))
	for _, t := range templates {
		xs := execByTpl[string(t)]
		m.add("engine.execute_ms."+string(t), median(xs), "ms", len(xs))
	}
	m.add("engine.rows_scanned_per_returned",
		ratio(delta("sqlshare_query_rows_scanned_total"), delta("sqlshare_query_rows_returned_total")), "ratio", 0)
	scanned, skipped := delta("sqlshare_segments_scanned_total"), delta("sqlshare_segments_skipped_total")
	m.add("engine.segments_skipped_frac", ratio(skipped, scanned+skipped), "ratio", int(scanned+skipped))

	// qcache: the status replies' cache field, and the cache's counters.
	hits := float64(w.cache[catalog.CacheHit])
	probes := hits + float64(w.cache[catalog.CacheMiss])
	m.add("qcache.hit_ratio", ratio(hits, probes), "ratio", int(probes))
	m.add("qcache.evictions", delta("sqlshare_cache_evictions_total"), "count", 0)
	m.add("qcache.bytes", after.server["sqlshare_cache_bytes"], "B", 0)

	// ingest: LoadBytes over the window's acknowledged payloads.
	var loadTime time.Duration
	var loadBytes int
	for _, wr := range w.writes {
		if !wr.ok {
			continue
		}
		t0 := time.Now()
		if _, err := ingest.LoadBytes(wr.name, wr.data, ingest.Options{}); err == nil {
			loadTime += time.Since(t0)
			loadBytes += len(wr.data)
		}
	}
	m.add("ingest.load_ms_per_mb", ratio(ms(loadTime), float64(loadBytes)/(1<<20)), "ms/MB", len(w.writes))

	// wal: the journal decorator and the WAL's counters.
	m.pct("wal.append_p50_ms", p.walMs, 0.5, "ms")
	m.pct("wal.append_p99_ms", p.walMs, 0.99, "ms")
	m.add("wal.records_per_fsync",
		ratio(delta("sqlshare_wal_records_total"), delta("sqlshare_wal_fsync_seconds_count")), "ratio", 0)
	m.add("wal.bytes_per_ingest_byte",
		ratio(delta("sqlshare_wal_bytes_total"), delta("sqlshare_ingest_bytes_total")), "ratio", 0)
	m.add("wal.checkpoint_s", checkpoint.Seconds(), "s", 1)

	// runtime: the whole process over the window (server and clients).
	m.add("runtime.gc_cpu_frac", ratio(after.gcCPU-before.gcCPU, after.busyCPU-before.busyCPU), "ratio", 0)
	m.add("runtime.alloc_bytes_per_op", ratio(float64(after.allocs-before.allocs), ops), "B", int(ops))
	m.add("runtime.cpu_ms_per_op", ratio(ms(after.cpu-before.cpu), ops), "ms", int(ops))
	m.add("runtime.goroutines_end", float64(after.goroutine), "count", 1)

	// trace: the share of op time outside any HTTP request, and what the
	// probes cost against the untraced window.
	m.add("trace.unattributed_frac", ratio(float64(w.opTime-w.reqTime), float64(w.opTime)), "ratio", int(ops))
	m.add("trace.overhead_frac", ratio(untracedTput-float64(w.completed)/w.seconds, untracedTput), "ratio", 2)
	return m
}

// replay times the cached, explain, parse and extract paths on the
// quiescent catalog from one goroutine, over up to replayCap distinct
// queries, and derives per-template engine time as uncached minus explain.
func replay(cat *catalog.Catalog, runs []uncachedRun) (hitUs, explainUs, parseUs, extractUs []float64, exec map[string][]float64) {
	exec = map[string][]float64{}
	step := max(len(runs)/replayCap, 1)
	for i := 0; i < len(runs); i += step {
		q := runs[i].q
		t0 := time.Now()
		if _, err := sqlparser.ParseStatement(q.sql); err != nil {
			continue
		}
		parseUs = append(parseUs, us(time.Since(t0)))
		t0 = time.Now()
		qp, err := cat.Explain(q.user, q.sql)
		explain := time.Since(t0)
		if err != nil {
			continue
		}
		explainUs = append(explainUs, us(explain))
		exec[q.tpl] = append(exec[q.tpl], runs[i].ms-ms(explain))
		t0 = time.Now()
		_ = plan.Extract(q.sql, qp)
		extractUs = append(extractUs, us(time.Since(t0)))
		// The first call fills the cache when the window left it cold;
		// only a call the catalog reports as a hit is timed.
		for try := 0; try < 2; try++ {
			t0 = time.Now()
			_, e, err := cat.QueryWithOptions(q.user, q.sql, catalog.QueryOptions{Parallelism: 1})
			d := time.Since(t0)
			if err != nil || e == nil || e.Cache == catalog.CacheBypass {
				break
			}
			if e.Cache == catalog.CacheHit {
				hitUs = append(hitUs, us(d))
				break
			}
		}
	}
	return
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
