package qcache

import (
	"fmt"
	"testing"
	"time"

	"sqlshare/internal/engine"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// fakeResult builds a result entry whose estimated size scales with rows.
func fakeResult(cell string, rows int) *ResultEntry {
	res := &engine.Result{Cols: []engine.ColMeta{{Name: "c"}}}
	v := sqltypes.NewString(cell)
	for i := 0; i < rows; i++ {
		res.Rows = append(res.Rows, storage.Row{v})
	}
	return &ResultEntry{Result: res, Bytes: int64(rows * v.SizeBytes())}
}

// sameShardKeys returns n distinct keys that all hash onto one shard, so
// LRU-order assertions are deterministic despite sharding.
func sameShardKeys(c *Cache, n int) []string {
	want := c.shardFor("seed")
	keys := []string{"seed"}
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("k%d", i)
		if c.shardFor(k) == want {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestPutGetRoundTrip(t *testing.T) {
	c := New(1<<20, 0)
	ent := fakeResult("v", 3)
	c.PutResult("a", ent)
	if got := c.GetResult("a"); got != ent {
		t.Fatalf("GetResult = %p, want stored entry %p", got, ent)
	}
	if got := c.GetResult("missing"); got != nil {
		t.Fatalf("GetResult(missing) = %v, want nil", got)
	}
	st := c.Stats()
	if st.ResultHits != 1 || st.ResultMisses != 1 || st.Stores != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Bytes <= 0 || st.Bytes != resultSize(ent) {
		t.Errorf("bytes = %d, want %d", st.Bytes, resultSize(ent))
	}
	if st.HitRate != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", st.HitRate)
	}
}

func TestResultAndPlanNamespacesAreDisjoint(t *testing.T) {
	c := New(1<<20, 0)
	p := &engine.Plan{}
	c.PutPlan("k", p)
	// The same key string holds a plan; a result probe must miss (and not
	// panic on the type), and vice versa.
	if got := c.GetResult("k"); got != nil {
		t.Fatalf("result probe over plan entry = %v, want nil", got)
	}
	if got := c.GetPlan("k"); got != p {
		t.Fatalf("plan probe = %v, want stored plan", got)
	}
	c.PutResult("r", fakeResult("x", 1))
	if got := c.GetPlan("r"); got != nil {
		t.Fatalf("plan probe over result entry = %v, want nil", got)
	}
	// In production the kind byte in ResultKey/PlanKey keeps the key
	// strings themselves disjoint too.
	vv := VersionVector{{Name: "a.b", Version: 1}}
	if ResultKey("u", "SELECT 1", 0, vv) == PlanKey("u", "SELECT 1", 0, vv) {
		t.Error("ResultKey and PlanKey collide for identical inputs")
	}
}

func TestLRUEvictionUnderBudget(t *testing.T) {
	c := New(1<<20, 0)
	keys := sameShardKeys(c, 4)
	ent := fakeResult("payload", 10)
	per := resultSize(ent)
	// Budget fits exactly 3 entries of this size; maxEntry must still
	// admit one (maxBytes/8 > per requires maxBytes >= 8*per).
	c.maxBytes = per * 3
	c.maxEntry = per + 1

	for _, k := range keys[:3] {
		c.PutResult(k, fakeResult("payload", 10))
	}
	// Touch keys[0] so keys[1] becomes the coldest.
	if c.GetResult(keys[0]) == nil {
		t.Fatal("warm probe missed")
	}
	c.PutResult(keys[3], fakeResult("payload", 10))

	if c.GetResult(keys[1]) != nil {
		t.Error("coldest entry survived past budget")
	}
	for _, k := range []string{keys[0], keys[2], keys[3]} {
		if c.GetResult(k) == nil {
			t.Errorf("entry %q evicted although it was not coldest", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes > c.maxBytes {
		t.Errorf("bytes %d exceed budget %d after eviction", st.Bytes, c.maxBytes)
	}
}

func TestReplaceSameKeyAdjustsBytes(t *testing.T) {
	c := New(1<<20, 0)
	small, big := fakeResult("x", 1), fakeResult("a-much-longer-cell-value", 50)
	c.PutResult("k", small)
	c.PutResult("k", big)
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != resultSize(big) {
		t.Errorf("after replace: entries=%d bytes=%d, want 1/%d", st.Entries, st.Bytes, resultSize(big))
	}
	if got := c.GetResult("k"); got != big {
		t.Error("replace did not take effect")
	}
}

// TestCacheConcurrentPutGetSameKey races a re-put of one key against
// probes of it. A replace overwrites the resident entry in place, so a
// probe must read the value under the shard lock; under -race this fails
// if it does not.
func TestCacheConcurrentPutGetSameKey(t *testing.T) {
	c := New(1<<20, 0)
	a, b := fakeResult("a", 1), fakeResult("b", 1)
	c.PutResult("k", a)
	const iters = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < iters; i++ {
			if i%2 == 0 {
				c.PutResult("k", b)
			} else {
				c.PutResult("k", a)
			}
		}
	}()
	for i := 0; i < iters; i++ {
		if got := c.GetResult("k"); got != a && got != b {
			t.Fatalf("probe %d returned %p, want one of the stored entries", i, got)
		}
	}
	<-done
}

func TestOversizedEntryRejected(t *testing.T) {
	c := New(1024, 0) // maxEntry = 128
	c.PutResult("huge", fakeResult("0123456789", 100))
	if c.GetResult("huge") != nil {
		t.Error("oversized entry was stored")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Stores != 0 {
		t.Errorf("stats after rejected store = %+v", st)
	}
}

func TestTTLExpiry(t *testing.T) {
	c := New(1<<20, time.Minute)
	clock := time.Unix(1700000000, 0)
	c.now = func() time.Time { return clock }
	c.PutResult("k", fakeResult("v", 1))
	if c.GetResult("k") == nil {
		t.Fatal("fresh entry missed")
	}
	clock = clock.Add(2 * time.Minute)
	if c.GetResult("k") != nil {
		t.Fatal("expired entry served")
	}
	st := c.Stats()
	if st.Entries != 0 {
		t.Errorf("expired entry still resident: %+v", st)
	}
	if st.Evictions != 1 {
		t.Errorf("TTL expiry should count as eviction, stats = %+v", st)
	}
}

func TestFlushKeepsCounters(t *testing.T) {
	c := New(1<<20, 0)
	c.PutResult("a", fakeResult("v", 1))
	c.GetResult("a")
	c.GetResult("b")
	c.Flush()
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("flush left residue: %+v", st)
	}
	if st.ResultHits != 1 || st.ResultMisses != 1 || st.Stores != 1 {
		t.Errorf("flush reset cumulative counters: %+v", st)
	}
	if c.GetResult("a") != nil {
		t.Error("entry survived flush")
	}
}
