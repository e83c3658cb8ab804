package catalog

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"sqlshare/internal/history"
	"sqlshare/internal/qcache"
)

// sameRecord reports whether two records agree field for field, comparing
// times with Equal (a decoded time carries no monotonic reading).
func sameRecord(a, b *history.Record) bool {
	if !a.Time.Equal(b.Time) {
		return false
	}
	x, y := *a, *b
	x.Time, y.Time = time.Time{}, time.Time{}
	return reflect.DeepEqual(x, y)
}

// TestHistoryLogRecordsEqualLogged: the history ring and the catalog log
// hold the very record the query returned, and a record read back from
// the JSONL history log equals it field for field — traced runs, cache
// hits, EXPLAIN ANALYZE and failures alike.
func TestHistoryLogRecordsEqualLogged(t *testing.T) {
	c := newTestCatalog(t)
	c.SetQueryCache(qcache.New(1<<20, 0))
	path := filepath.Join(t.TempDir(), "history.jsonl")
	h, err := history.New(history.Config{LogPath: path})
	if err != nil {
		t.Fatal(err)
	}
	c.SetHistory(h)
	var returned []*history.Record
	for _, q := range []struct {
		sql   string
		trace bool
	}{
		{"SELECT station, val FROM water WHERE val > 1", true},
		{"SELECT station, COUNT(*) AS n FROM water GROUP BY station", false},
		{"SELECT station, COUNT(*) AS n FROM water GROUP BY station", false}, // hit
		{"EXPLAIN ANALYZE SELECT station FROM water", false},
		{"SELECT nope FROM water", false},
	} {
		_, rec, _ := c.QueryWithOptions("alice", q.sql, QueryOptions{Trace: q.trace})
		returned = append(returned, rec)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if returned[2].Cache != CacheHit || returned[2].Meta == nil || returned[4].Err == "" {
		t.Fatalf("workload did not produce a hit with cached metadata and a failure: %+v", returned)
	}
	logged, ring := c.Log(), h.Recent(0)
	read, err := history.ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(logged) != len(returned) || len(ring) != len(returned) || len(read) != len(returned) {
		t.Fatalf("log=%d ring=%d file=%d, want %d each", len(logged), len(ring), len(read), len(returned))
	}
	for i, rec := range returned {
		if logged[i] != rec || ring[len(ring)-1-i] != rec {
			t.Errorf("record %d: catalog log and history ring must share the returned pointer", i)
		}
		if rec.Digest == "" && rec.Meta != nil {
			t.Errorf("record %d: digest missing on a planned statement", i)
		}
		if !sameRecord(read[i], rec) {
			t.Errorf("record %d read back from the history log differs:\n got  %+v\n want %+v", i, read[i], rec)
		}
	}
	if returned[0].Plan == nil || returned[0].Plan.Trace == nil || read[0].Plan.Trace == nil {
		t.Error("traced run lost its execution trace")
	}
}
