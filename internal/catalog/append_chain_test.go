package catalog

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"sqlshare/internal/engine"
	"sqlshare/internal/history"
	"sqlshare/internal/plan"
	"sqlshare/internal/qcache"
	"sqlshare/internal/sqlparser"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

const chainBatchRows = 5

// chainRows returns batch b of the append-chain data. The leading id column
// rises across batches, so every batch is already in clustered order and
// batch after batch is the clustered order of all of them: a dataset built
// by appending batches 0..k and one table holding the same rows scan the
// rows in the same order. Stations repeat and values have NULLs and ties.
func chainRows(b int) []storage.Row {
	rows := make([]storage.Row, chainBatchRows)
	for i := range rows {
		id := b*chainBatchRows + i
		val := sqltypes.NewFloat(float64((id * 37) % 101))
		if id%11 == 3 {
			val = sqltypes.TypedNull(sqltypes.Float)
		}
		rows[i] = storage.Row{
			sqltypes.NewInt(int64(id)),
			sqltypes.NewString(fmt.Sprintf("s%d", (id*7)%5)),
			sqltypes.NewInt(int64(id % 4)),
			val,
		}
	}
	return rows
}

func chainTable(t testing.TB, name string, batches ...int) *storage.Table {
	t.Helper()
	tbl := storage.NewTable(name, storage.Schema{
		{Name: "id", Type: sqltypes.Int},
		{Name: "station", Type: sqltypes.String},
		{Name: "depth", Type: sqltypes.Int},
		{Name: "val", Type: sqltypes.Float},
	})
	var rows []storage.Row
	for _, b := range batches {
		rows = append(rows, chainRows(b)...)
	}
	if err := tbl.Insert(rows); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// chainCatalog builds alice.readings from batch 0 plus k appended batches,
// and alice.flat holding the same rows uploaded as one table. It returns
// flat's base table.
func chainCatalog(t testing.TB, k int) (*Catalog, *storage.Table) {
	t.Helper()
	c := New()
	if _, err := c.CreateUser("alice", "alice@uw.edu"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateDatasetFromTable("alice", "readings", chainTable(t, "readings", 0), Meta{}); err != nil {
		t.Fatal(err)
	}
	all := []int{0}
	for b := 1; b <= k; b++ {
		appendChainBatch(t, c, b)
		all = append(all, b)
	}
	flat := chainTable(t, "flat", all...)
	if _, err := c.CreateDatasetFromTable("alice", "flat", flat, Meta{}); err != nil {
		t.Fatal(err)
	}
	return c, flat
}

func appendChainBatch(t testing.TB, c *Catalog, b int) {
	t.Helper()
	name := fmt.Sprintf("batch_%d", b)
	if _, err := c.CreateDatasetFromTable("alice", name, chainTable(t, name, b), Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("alice", "readings", name); err != nil {
		t.Fatal(err)
	}
}

// chainQueries are templates over one dataset, written %[1]s.
var chainQueries = []string{
	"SELECT * FROM [%[1]s]",
	"SELECT id, station, val FROM [%[1]s] WHERE val > 40 AND depth < 3",
	"SELECT station, COUNT(*), SUM(val), AVG(depth), MIN(id) FROM [%[1]s] GROUP BY station",
	"SELECT COUNT(*), SUM(val) FROM [%[1]s]",
	"SELECT * FROM [%[1]s] ORDER BY val DESC, id",
	"SELECT TOP 7 * FROM [%[1]s]",
	"SELECT TOP 4 id, val FROM [%[1]s] ORDER BY val, id DESC",
	"SELECT id, station, ROW_NUMBER() OVER (PARTITION BY station ORDER BY val, id) AS rn FROM [%[1]s]",
	"SELECT o.id FROM [%[1]s] o WHERE EXISTS (SELECT 1 FROM [%[1]s] i WHERE i.station = o.station AND i.val > o.val + 60)",
}

// encodeResult renders a result as bytes: column names and types, then
// every value in its serialized form, in row order.
func encodeResult(t testing.TB, res *engine.Result) string {
	t.Helper()
	type col struct {
		Name string
		Type sqltypes.Type
	}
	doc := struct {
		Cols []col
		Rows [][]storage.ValueData
	}{}
	for _, c := range res.Cols {
		doc.Cols = append(doc.Cols, col{c.Name, c.Type})
	}
	for _, r := range res.Rows {
		enc := make([]storage.ValueData, len(r))
		for i, v := range r {
			enc[i] = storage.EncodeValue(v)
		}
		doc.Rows = append(doc.Rows, enc)
	}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func chainQuery(t testing.TB, c *Catalog, sql string, opts QueryOptions) string {
	t.Helper()
	res, _, err := c.QueryWithOptions("alice", sql, opts)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return encodeResult(t, res)
}

// TestAppendChainDifferential checks a dataset of k appended batches
// answers every query byte for byte as the same rows uploaded as one table,
// at DOP 1, 2 and 8 with vectorized execution on and off; and that neither
// the queries nor later appends and inserts change what was read before
// (forwarded rows alias the tables' clustered slices).
func TestAppendChainDifferential(t *testing.T) {
	prevMorsel, prevMin := engine.SetParallelTuning(7, 10)
	prevProcs := runtime.GOMAXPROCS(8)
	prevVec := engine.SetVectorizedEnabled(true)
	t.Cleanup(func() {
		engine.SetParallelTuning(prevMorsel, prevMin)
		runtime.GOMAXPROCS(prevProcs)
		engine.SetVectorizedEnabled(prevVec)
	})
	for _, k := range []int{1, 2, 17, 64} {
		c, flat := chainCatalog(t, k)
		if n := flat.NumRows(); n != (k+1)*chainBatchRows {
			t.Fatalf("k=%d: flat holds %d rows, want %d", k, n, (k+1)*chainBatchRows)
		}
		stored := encodeResult(t, &engine.Result{Rows: flat.Scan()})
		flatAll := chainQuery(t, c, "SELECT * FROM [alice.flat]", QueryOptions{NoCache: true})
		for _, tmpl := range chainQueries {
			want := chainQuery(t, c, fmt.Sprintf(tmpl, "alice.flat"), QueryOptions{NoCache: true, Parallelism: 1})
			if strings.Contains(want, `"Rows":null`) {
				t.Fatalf("k=%d %s: empty answer compares nothing", k, tmpl)
			}
			for _, vec := range []bool{false, true} {
				engine.SetVectorizedEnabled(vec)
				for _, dop := range []int{1, 2, 8} {
					opts := QueryOptions{NoCache: true, Parallelism: dop}
					if got := chainQuery(t, c, fmt.Sprintf(tmpl, "alice.readings"), opts); got != want {
						t.Errorf("k=%d vectorized=%v dop=%d %s:\nappended: %s\none table: %s",
							k, vec, dop, tmpl, got, want)
					}
					if got := chainQuery(t, c, fmt.Sprintf(tmpl, "alice.flat"), opts); got != want {
						t.Errorf("k=%d vectorized=%v dop=%d %s: one table differs from its serial row-path answer", k, vec, dop, tmpl)
					}
				}
			}
			engine.SetVectorizedEnabled(true)
		}
		// Aliasing guard: no query wrote into or reordered a stored row.
		if got := encodeResult(t, &engine.Result{Rows: flat.Scan()}); got != stored {
			t.Fatalf("k=%d: the base table's rows changed under the queries", k)
		}
		if got := chainQuery(t, c, "SELECT * FROM [alice.flat]", QueryOptions{NoCache: true}); got != flatAll {
			t.Fatalf("k=%d: SELECT * over the base table changed under the queries", k)
		}
	}
}

// TestAppendChainCachedResultSurvivesAppends checks a cached SELECT *
// result, whose rows forward the tables' clustered slices, stays equal
// after further appends and after rows are inserted into a table it reads.
func TestAppendChainCachedResultSurvivesAppends(t *testing.T) {
	c, flat := chainCatalog(t, 3)
	c.SetQueryCache(qcache.New(1<<20, time.Hour))
	held := map[string]*engine.Result{}
	before := map[string]string{}
	for _, ds := range []string{"alice.readings", "alice.flat"} {
		sql := "SELECT * FROM [" + ds + "]"
		res, _, err := c.Query("alice", sql)
		if err != nil {
			t.Fatal(err)
		}
		held[ds], before[ds] = res, encodeResult(t, res)
		if _, rec, err := c.Query("alice", sql); err != nil || rec.Cache != history.CacheHit {
			t.Fatalf("%s: second run cache=%q err=%v, want a hit", sql, rec.Cache, err)
		}
	}
	for b := 4; b <= 8; b++ {
		appendChainBatch(t, c, b)
	}
	if err := flat.Insert(append(chainRows(40), chainRows(41)...)); err != nil {
		t.Fatal(err)
	}
	for ds, res := range held {
		if got := encodeResult(t, res); got != before[ds] {
			t.Errorf("%s: cached result changed after appends and inserts", ds)
		}
	}
	res, rec, err := c.Query("alice", "SELECT COUNT(*) FROM [alice.readings]")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 9*chainBatchRows {
		t.Errorf("readings has %d rows after appends, want %d (cache=%s)", got, 9*chainBatchRows, rec.Cache)
	}
}

// TestAppendChainPlanShape checks a k-append dataset compiles to exactly
// one Concatenation with k+1 inputs, in the compiled plan and in EXPLAIN.
func TestAppendChainPlanShape(t *testing.T) {
	for _, k := range []int{1, 2, 17, 64} {
		c, _ := chainCatalog(t, k)
		sql := "SELECT * FROM [alice.readings]"
		q, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		c.mu.RLock()
		p, err := engine.Compile(q, c.resolverLocked("alice"))
		c.mu.RUnlock()
		if err != nil {
			t.Fatal(err)
		}
		var compiled []int
		var walk func(n engine.Node)
		walk = func(n engine.Node) {
			if n.Props().PhysicalOp == "Concatenation" {
				compiled = append(compiled, len(n.Children()))
			}
			for _, ch := range n.Children() {
				walk(ch)
			}
		}
		walk(p.Root)
		if fmt.Sprint(compiled) != fmt.Sprint([]int{k + 1}) {
			t.Errorf("k=%d: compiled Concatenation inputs %v, want [%d]", k, compiled, k+1)
		}
		qp, err := c.Explain("alice", sql)
		if err != nil {
			t.Fatal(err)
		}
		var explained []int
		var walkPlan func(n *plan.Node)
		walkPlan = func(n *plan.Node) {
			if n.PhysicalOp == "Concatenation" {
				explained = append(explained, len(n.Children))
			}
			for _, ch := range n.Children {
				walkPlan(ch)
			}
		}
		walkPlan(qp.Root)
		if fmt.Sprint(explained) != fmt.Sprint([]int{k + 1}) {
			t.Errorf("k=%d: EXPLAIN Concatenation inputs %v, want [%d]", k, explained, k+1)
		}
	}
}
