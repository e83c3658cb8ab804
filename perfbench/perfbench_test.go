package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

// metricName is the pattern every reported metric name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// spec is the part of BENCHMARK.json the tests hold the program to.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func names(xs []struct{ Name string }) []string {
	var out []string
	for _, x := range xs {
		out = append(out, x.Name)
	}
	sort.Strings(out)
	return out
}

func emitted(m *metricSet) []string {
	var out []string
	for _, mt := range m.list {
		out = append(out, mt.Name)
	}
	sort.Strings(out)
	return out
}

func TestMetricNames(t *testing.T) {
	s := loadSpec(t)
	for _, n := range append(names(s.EndToEnd), names(s.PerLayer)...) {
		if !metricName.MatchString(n) {
			t.Errorf("metric name %q does not match %s", n, metricName)
		}
	}
	var ws []string
	for _, w := range workloads {
		ws = append(ws, w.Name)
	}
	sort.Strings(ws)
	if got := names(s.Workloads); !reflect.DeepEqual(got, ws) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", got, ws)
	}
	got := emitted(endToEndMetrics(&window{clientLog: *newClientLog(), seconds: 1}, []float64{1}, []float64{1}, []float64{1}))
	if want := names(s.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json lists %v", got, want)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 0, false},
		{100, 0.9, 90, true},
		{99, 0.9, 0, false},
		{20, 0.5, 10, true},
		{19, 0.5, 0, false},
		{0, 0.5, 0, false},
	} {
		v, err := percentile(seq(c.n), c.q)
		if (err == nil) != c.ok || (c.ok && v != c.want) {
			t.Errorf("percentile(%d samples, %g) = %v, %v; want %v, ok=%v", c.n, c.q, v, err, c.want, c.ok)
		}
	}
	m := &metricSet{strict: true}
	m.pct("x", seq(50), 0.99, "ms")
	if m.err == nil {
		t.Error("a strict set accepted a p99 over 50 samples")
	}
}

func TestSameSeedSameStream(t *testing.T) {
	const n = 300
	stream := func(w workload, seed int64) ([]op, *scenario) {
		sc, err := w.build(seed, 2000)
		if err != nil {
			t.Fatal(err)
		}
		var ops []op
		for i := 0; i < n; i++ {
			o, ok := sc.take()
			if !ok {
				t.Fatalf("%s: stream ended after %d ops", w.Name, i)
			}
			ops = append(ops, o)
		}
		return ops, sc
	}
	for _, w := range workloads {
		a, sa := stream(w, 7)
		b, sb := stream(w, 7)
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(sa.Setup, sb.Setup) || !reflect.DeepEqual(sa.Users, sb.Users) {
			t.Errorf("%s: seed 7 gave two different inputs", w.Name)
		}
		if c, _ := stream(w, 8); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", w.Name)
		}
	}
}

// TestSmoke runs each workload for a short window and requires every op
// and every output check to pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	ctx := context.Background()
	for _, w := range workloads {
		sc, err := w.build(3, 3000)
		if err != nil {
			t.Fatal(err)
		}
		h, err := startHost(ctx, sc, w.Durable, t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		win, err := runWindow(ctx, h, sc, time.Second, false)
		if err != nil {
			h.close()
			t.Fatal(err)
		}
		ck := runChecks(ctx, h, win, 2, true)
		h.close()
		if win.attempted == 0 || win.failed != 0 {
			t.Errorf("%s: %d of %d ops failed: %v", w.Name, win.failed, win.attempted, win.errs)
		}
		if ck.items == 0 || len(ck.failures) != 0 {
			t.Errorf("%s: %d checks, failures %v", w.Name, ck.items, ck.failures)
		}
	}
}

// TestTracedRunReportsEveryLayer runs the traced mode on the cheapest
// workload and compares the metrics it prints with BENCHMARK.json.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a traced window")
	}
	w, err := findWorkload("durable-ingest")
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{w: w, seed: 5, window: 2 * time.Second, scratch: t.TempDir()}
	if err := r.traced(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !r.correct() {
		t.Fatalf("traced run failed: ops %v, checks %v", r.win.errs, r.ck.failures)
	}
	if got, want := emitted(r.m), names(loadSpec(t).PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("traced run reports %v, BENCHMARK.json lists %v", got, want)
	}
}
