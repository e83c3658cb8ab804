// Command perfbench is the service benchmark: it starts the SQLShare
// server in-process, configured as cmd/sqlshare-server configures it with
// its default flags, replays one seeded workload over REST from one
// closed-loop client per CPU, checks the program's outputs, and prints
// every metric by name with its unit and sample count. The last line of
// standard output is a JSON object with the keys correct, attempted,
// failed and metrics.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload sqlshare-mix|sdss-repeat|durable-ingest
//	          --seed N --seconds S --trace 0|1
//
// Both modes first drive a throwaway set-up for a short warm-up. --trace 0
// then times three windows of S/3 seconds, each on a fresh set-up, and
// reports the end-to-end metrics. --trace 1 runs an untraced and a traced
// window of S/2 seconds each, from fresh set-ups, and reports the
// per-layer metrics of the traced one.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"
)

// subRuns is how many windows an untraced run splits its time into.
const subRuns = 3

// warmup is how long a run drives a throwaway set-up before timing.
const warmup = 2 * time.Second

// An untraced run sets the service up at least minSetups times, and more
// while the set-ups took less than setupBudget seconds in all, up to
// maxSetups; setup_s is their median.
const (
	minSetups   = 5
	maxSetups   = 40
	setupBudget = 1.0
)

// streamRate bounds the ops per second a compiled stream can feed for a
// whole run, about twice what the compiled workloads reach at this
// writing; a faster program exhausts it and the run fails loudly. The
// compiled population, upload payloads included, stays in memory, so it
// is not made larger than that.
const streamRate = 300

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be at least 1")
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	scratch, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := &runner{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second, scratch: scratch}
	if *trace == 1 {
		err = r.traced(context.Background())
	} else {
		err = r.untraced(context.Background())
	}
	os.RemoveAll(scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !r.correct() {
		os.Exit(1)
	}
}

// runner carries one invocation's settings and outcome.
type runner struct {
	w       workload
	seed    int64
	window  time.Duration
	scratch string

	win   *window
	ck    *checks
	m     *metricSet
	diag  *metricSet     // printed, not part of the result line
	extra map[string]any // more fields for the JSON record
}

func (r *runner) scenario() (*scenario, error) {
	ops := streamRate*int(r.window/time.Second) + 1000
	sc, err := r.w.build(r.seed, ops)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", r.w.Name, err)
	}
	return sc, nil
}

// untraced sets the service up several times for setup_s, then runs
// subRuns windows of an equal share of the run, each on a fresh set-up
// that continues the same op stream, and checks each window's outputs.
// Throughput and heap are medians over the windows; latency percentiles
// pool the windows' samples.
func (r *runner) untraced(ctx context.Context) error {
	sc, err := r.scenario()
	if err != nil {
		return err
	}
	var setupS []float64
	for i := 0; i < maxSetups && (i < minSetups || sum(setupS) < setupBudget); i++ {
		runtime.GC()
		h, err := startHost(ctx, sc, r.w.Durable, r.scratch, nil)
		if err != nil {
			return err
		}
		setupS = append(setupS, h.setup.Seconds())
		h.close()
	}
	if err := r.warmUp(ctx, sc); err != nil {
		return err
	}
	all := &window{clientLog: *newClientLog(), seconds: r.window.Seconds()}
	r.ck = &checks{}
	var tputs, retained, heaps []float64
	t0 := time.Now()
	for i := 0; i < subRuns; i++ {
		win, ck, heap, err := r.subRun(ctx, sc, r.window/subRuns, i == subRuns-1)
		if err != nil {
			return err
		}
		tputs = append(tputs, float64(win.completed)/win.seconds)
		retained = append(retained, ratio(heap.retained/(1<<10), float64(win.attempted)))
		heaps = append(heaps, heap.live/(1<<20))
		all.merge(&win.clientLog)
		all.clients = win.clients
		r.ck.add(ck)
	}
	r.win = all
	m := endToEndMetrics(all, tputs, retained, setupS)
	if m.err != nil {
		return fmt.Errorf("%v; lengthen --seconds", m.err)
	}
	// The query p99 is printed but not gated: on 2 cores it is set by a
	// handful of lock convoys behind multi-second correlated subqueries,
	// and swings by half between seeds.
	r.diag = &metricSet{}
	r.diag.pct("query_p99_ms", all.queryMs, 0.99, "ms")
	r.diag.add("heap_live_mb", median(heaps), "MB", len(heaps))
	r.extra = map[string]any{"window_throughputs": tputs, "window_heap_live_mb": heaps,
		"window_heap_retained_kb_per_op": retained,
		"outside_windows_s":              time.Since(t0).Seconds() - r.window.Seconds()}
	r.m = m
	r.print(sc, 0)
	return nil
}

// warmUp runs the stream for warmup on a set-up it then discards, so the
// first timed window does not pay for a cold process: an unsized heap,
// empty pools, idle connections.
func (r *runner) warmUp(ctx context.Context, sc *scenario) error {
	h, err := startHost(ctx, sc, r.w.Durable, r.scratch, nil)
	if err != nil {
		return err
	}
	defer h.close()
	_, err = runWindow(ctx, h, sc, warmup, false)
	return err
}

// heapReading is the live heap at the end of a window and how much of it
// the window added.
type heapReading struct{ live, retained float64 }

// subRun sets the service up, runs one timed window of d, reads the live
// heap, and checks the outputs; recovery from the WAL, which replays the
// whole log, is checked only when recover is set.
func (r *runner) subRun(ctx context.Context, sc *scenario, d time.Duration, recover bool) (*window, *checks, heapReading, error) {
	var heap heapReading
	h, err := startHost(ctx, sc, r.w.Durable, r.scratch, nil)
	if err != nil {
		return nil, nil, heap, err
	}
	defer h.close()
	before := liveHeap()
	win, err := runWindow(ctx, h, sc, d, false)
	if err != nil {
		return nil, nil, heap, err
	}
	// The payloads already sent are let go before the heap is read; what
	// the client keeps for the checks is small.
	for _, wr := range win.writes {
		wr.data = nil
	}
	heap.live = liveHeap()
	heap.retained = heap.live - before
	return win, runChecks(ctx, h, win, runtime.NumCPU(), recover), heap, nil
}

// endToEndMetrics derives the metrics a user of the service sees from
// the pooled untraced windows, each window's throughput and heap retained
// per op, and the set-up times.
func endToEndMetrics(win *window, tputs, retainedKB, setupS []float64) *metricSet {
	m := &metricSet{strict: true}
	m.add("throughput_ops_s", median(tputs), "1/s", len(tputs))
	m.pct("query_p50_ms", win.queryMs, 0.5, "ms")
	m.pct("query_p90_ms", win.queryMs, 0.9, "ms")
	m.pct("write_p50_ms", win.writeMs, 0.5, "ms")
	m.pct("write_p90_ms", win.writeMs, 0.9, "ms")
	// What the service keeps per op (job table, query log, history) rather
	// than the heap's size, which grows with throughput.
	m.add("heap_retained_kb_per_op", median(retainedKB), "KB", len(retainedKB))
	m.add("setup_s", median(setupS), "s", len(setupS))
	return m
}

// traced runs an untraced and then a traced window of half the run each,
// from fresh set-ups of the same seed, checks the traced window's outputs
// and reports per-layer metrics.
func (r *runner) traced(ctx context.Context) error {
	half := r.window / 2
	sc, err := r.scenario()
	if err != nil {
		return err
	}
	if err := r.warmUp(ctx, sc); err != nil {
		return err
	}
	h, err := startHost(ctx, sc, r.w.Durable, r.scratch, nil)
	if err != nil {
		return err
	}
	runtime.GC()
	plain, err := runWindow(ctx, h, sc, half, false)
	h.close()
	if err != nil {
		return err
	}
	if plain.failed > 0 {
		r.win, r.ck, r.m = plain, &checks{}, &metricSet{}
		r.print(sc, 1)
		return nil
	}
	untracedTput := float64(plain.completed) / plain.seconds

	if sc, err = r.scenario(); err != nil {
		return err
	}
	probe := newLayerProbe()
	if h, err = startHost(ctx, sc, r.w.Durable, r.scratch, probe); err != nil {
		return err
	}
	defer h.close()
	runtime.GC()
	before, err := sampleProcess(ctx, h)
	if err != nil {
		return err
	}
	win, err := runWindow(ctx, h, sc, half, true)
	if err != nil {
		return err
	}
	after, err := sampleProcess(ctx, h)
	if err != nil {
		return err
	}
	var checkpoint time.Duration
	if h.dur != nil {
		c := &client{base: h.base, hc: http.DefaultClient}
		t0 := time.Now()
		code, err := c.do(ctx, "POST", "/api/admin/checkpoint", "", nil, nil)
		if err := expect(code, http.StatusOK, "checkpoint", err); err != nil {
			return err
		}
		checkpoint = time.Since(t0)
	}
	r.win = win
	r.ck = runChecks(ctx, h, win, 1, true)
	r.m = layerMetrics(h, win, before, after, r.ck, checkpoint, untracedTput)
	r.print(sc, 1)
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func liveHeap() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// failed counts failed ops and failed output checks.
func (r *runner) failed() int { return r.win.failed + len(r.ck.failures) }

func (r *runner) correct() bool { return r.failed() == 0 }

// print writes the human-readable report, the full JSON record, and the
// result line last.
func (r *runner) print(sc *scenario, trace int) {
	win := r.win
	rev, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	opCounts := map[string]int{}
	for k, n := range win.ops {
		opCounts[k.String()] = n
	}
	record := map[string]any{
		"workload":             r.w.Name,
		"seed":                 r.seed,
		"seconds":              r.window.Seconds(),
		"trace":                trace,
		"nproc":                runtime.NumCPU(),
		"gomaxprocs":           runtime.GOMAXPROCS(0),
		"clients":              win.clients,
		"go":                   runtime.Version(),
		"rev":                  rev,
		"dirty":                modified,
		"ops":                  opCounts,
		"attempted":            win.attempted,
		"completed":            win.completed,
		"failed_ops":           win.failed,
		"failed_frac":          ratio(float64(r.failed()), float64(win.attempted)),
		"distinct_queries":     len(win.last),
		"query_executions":     win.queries,
		"distinct_frac":        ratio(float64(len(win.last)), float64(win.queries)),
		"stream_distinct":      sc.Distinct,
		"cache":                win.cache,
		"checks":               r.ck.items,
		"check_failures":       r.ck.failures,
		"checks_resubmitted":   r.ck.resubmitted,
		"checks_stale_skipped": r.ck.staleSkipped,
		"errors":               win.errs,
		"metrics":              r.m.list,
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d %s rev=%.12s\n",
		r.w.Name, r.seed, r.window.Seconds(), trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev)
	kinds := make([]string, 0, len(opCounts))
	for k := range opCounts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("  ops %-8s %d\n", k, opCounts[k])
	}
	fmt.Printf("  attempted %d, completed in window %d, failed ops %d, checks %d (%d failed, %d stale re-submitted, %d stale skipped), distinct queries %d of %d\n",
		win.attempted, win.completed, win.failed, r.ck.items, len(r.ck.failures), r.ck.resubmitted, r.ck.staleSkipped, len(win.last), win.queries)
	for _, e := range win.errs {
		fmt.Printf("  error: %s\n", e)
	}
	for _, f := range r.ck.failures {
		fmt.Printf("  check failed: %s\n", f)
	}
	for _, mt := range r.m.list {
		fmt.Printf("  %-36s %14.4f %-6s samples=%d\n", mt.Name, mt.Value, mt.Unit, mt.Samples)
	}
	if r.diag != nil {
		for _, mt := range r.diag.list {
			fmt.Printf("  %-36s %14.4f %-6s samples=%d (not gated)\n", mt.Name, mt.Value, mt.Unit, mt.Samples)
		}
		r.m.short = append(r.m.short, r.diag.short...)
		record["diagnostics"] = r.diag.list
	}
	for _, s := range r.m.short {
		fmt.Printf("  note: %s\n", s)
	}
	record["short_percentiles"] = r.m.short
	for k, v := range r.extra {
		record[k] = v
	}
	rec, _ := json.Marshal(record)
	fmt.Printf("record %s\n", rec)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, mt := range r.m.list {
		out[mt.Name] = value{mt.Value, mt.Unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   r.correct(),
		"attempted": win.attempted,
		"failed":    r.failed(),
		"metrics":   out,
	})
	fmt.Println(string(line))
}
