//go:build !race

package sqlshare

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sqlshare/internal/engine"
	"sqlshare/internal/sqlparser"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// speedupFactRow builds row i of the speedup fact table. seq trails the
// insertion order with a little jitter: correlated with the clustered id
// order, so range predicates on it prune segments via zone maps without
// being the sort key themselves. val is uniform on [0, 1562.5).
func speedupFactRow(rng *rand.Rand, i int) storage.Row {
	seq := i - rng.Intn(50)
	if seq < 0 {
		seq = 0
	}
	return storage.Row{
		sqltypes.NewInt(int64(i)),
		sqltypes.NewInt(int64(seq)),
		sqltypes.NewString(fmt.Sprintf("group-%02d", rng.Intn(40))),
		sqltypes.NewInt(int64(rng.Intn(1000))),
		sqltypes.NewFloat(float64(rng.Intn(100000)) / 64),
		sqltypes.NewString(strings.Repeat("payload-", 1+rng.Intn(3)) + fmt.Sprint(rng.Intn(10000))),
	}
}

// timedExecute runs the compiled plan once at DOP 1.
func timedExecute(t *testing.T, p *engine.Plan) (time.Duration, *engine.Result) {
	t.Helper()
	ctx := &engine.ExecContext{Now: time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC), DOP: 1}
	start := time.Now()
	res, err := p.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return time.Since(start), res
}

func medianDuration(d []time.Duration) time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)/2]
}

// TestColumnarSpeedupFloor is the performance gate of the columnar path.
// Over a 300k-row fact table in 2048-row segments it runs each query five
// times with the vectorized engine disabled (the row-at-a-time
// interpreter, ground truth) and five times enabled, alternating, at
// DOP 1, and fails unless the results are byte-identical, the full-table
// predicate scan is at least 3x faster vectorized (median against
// median), the fused scalar aggregation at least 2x, and zone maps
// skipped at least one segment. The gains come from typed
// kernels and zone maps, not from cores, so the floors hold on one CPU.
// The race detector slows the two paths unevenly, hence the build tag.
func TestColumnarSpeedupFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement is not short")
	}
	const factRows, runs = 300000, 5
	prevSeg := storage.SetSegmentRows(2048)
	prevVec := engine.SetVectorizedEnabled(true)
	var skipped atomic.Int64
	engine.SetSegmentsHook(func(_, sk int64) { skipped.Add(sk) })
	t.Cleanup(func() {
		storage.SetSegmentRows(prevSeg)
		engine.SetVectorizedEnabled(prevVec)
		engine.SetSegmentsHook(nil)
	})

	fact := storage.NewTable("fact", storage.Schema{
		{Name: "id", Type: sqltypes.Int},
		{Name: "seq", Type: sqltypes.Int},
		{Name: "grp", Type: sqltypes.String},
		{Name: "cat", Type: sqltypes.Int},
		{Name: "val", Type: sqltypes.Float},
		{Name: "note", Type: sqltypes.String},
	})
	rng := rand.New(rand.NewSource(1))
	rows := make([]storage.Row, factRows)
	for i := range rows {
		rows[i] = speedupFactRow(rng, i)
	}
	if err := fact.Insert(rows); err != nil {
		t.Fatal(err)
	}
	resolver := engine.MapResolver{
		Tables: map[string]*storage.Table{"fact": fact},
		Views:  map[string]sqlparser.QueryExpr{},
	}

	queries := []struct{ name, sql string }{
		{"scan-selective", "SELECT id, seq, val FROM fact WHERE seq BETWEEN 150000 AND 152000"},
		{"scan-heavy", "SELECT id, val FROM fact WHERE val > 1450 AND cat < 900"},
		{"agg-heavy", "SELECT COUNT(*) AS n, SUM(val) AS s, AVG(val) AS a, MIN(val) AS lo, MAX(val) AS hi FROM fact"},
	}
	speedup := map[string]float64{}
	for _, q := range queries {
		parsed, err := sqlparser.Parse(q.sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := engine.Compile(parsed, resolver)
		if err != nil {
			t.Fatal(err)
		}
		// Alternate the paths so a change in background load hits both.
		rowTimes, vecTimes := make([]time.Duration, runs), make([]time.Duration, runs)
		var rowRes, vecRes *engine.Result
		before := skipped.Load()
		for i := 0; i < runs; i++ {
			engine.SetVectorizedEnabled(false)
			rowTimes[i], rowRes = timedExecute(t, p)
			engine.SetVectorizedEnabled(true)
			vecTimes[i], vecRes = timedExecute(t, p)
		}
		if corpusResultKey(rowRes) != corpusResultKey(vecRes) {
			t.Fatalf("%s: vectorized result differs from the row path", q.name)
		}
		rowT, vecT := medianDuration(rowTimes), medianDuration(vecTimes)
		speedup[q.name] = rowT.Seconds() / vecT.Seconds()
		t.Logf("%-14s row %v  vectorized %v  %.2fx  (%d rows, %d segments skipped per run)",
			q.name, rowT, vecT, speedup[q.name], len(vecRes.Rows), (skipped.Load()-before)/runs)
	}

	if s := speedup["scan-heavy"]; s < 3 {
		t.Errorf("scan-heavy speedup %.2fx < 3x", s)
	}
	if s := speedup["agg-heavy"]; s < 2 {
		t.Errorf("agg-heavy speedup %.2fx < 2x", s)
	}
	if skipped.Load() == 0 {
		t.Error("zone maps skipped no segments")
	}
}
