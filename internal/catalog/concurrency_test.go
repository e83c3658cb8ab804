package catalog

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"sqlshare/internal/storage"
)

// TestConcurrentQueriesAndMutations hammers the catalog from many
// goroutines — the REST layer runs every query in its own goroutine, so
// queries race with uploads, view creation, sharing and deletion. Run with
// -race to validate the locking discipline.
func TestConcurrentQueriesAndMutations(t *testing.T) {
	c := newTestCatalog(t)
	if err := c.SetVisibility("alice", "water", Public); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 256)

	// Readers: queries from several users.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			users := []string{"alice", "bob", "carol"}
			for i := 0; i < 30; i++ {
				u := users[(w+i)%len(users)]
				if _, _, err := c.Query(u, "SELECT COUNT(*) FROM [alice.water]"); err != nil {
					errs <- fmt.Errorf("query: %w", err)
					return
				}
			}
		}(w)
	}
	// Writers: uploads and views under distinct names.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				name := fmt.Sprintf("up_%d_%d", w, i)
				if _, err := c.CreateDatasetFromTable("alice", name, seedTable(t, name), Meta{}); err != nil {
					errs <- fmt.Errorf("upload: %w", err)
					return
				}
				vname := fmt.Sprintf("v_%d_%d", w, i)
				if _, err := c.SaveView("alice", vname,
					fmt.Sprintf("SELECT station FROM %s", name), Meta{}); err != nil {
					errs <- fmt.Errorf("view: %w", err)
					return
				}
				if err := c.ShareWith("alice", vname, "bob"); err != nil {
					errs <- fmt.Errorf("share: %w", err)
					return
				}
			}
		}(w)
	}
	// A deleter churning datasets it creates itself.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			name := fmt.Sprintf("tmp_%d", i)
			if _, err := c.CreateDatasetFromTable("carol", name, seedTable(t, name), Meta{}); err != nil {
				errs <- fmt.Errorf("tmp upload: %w", err)
				return
			}
			if _, _, err := c.Query("carol", "SELECT * FROM "+name); err != nil {
				errs <- fmt.Errorf("tmp query: %w", err)
				return
			}
			if err := c.Delete("carol", name); err != nil {
				errs <- fmt.Errorf("tmp delete: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The log captured all queries (4*30 readers + 10 deleter queries).
	if got := c.LogSize(); got != 130 {
		t.Errorf("log size = %d, want 130", got)
	}
}

// TestDatasetSnapshotRace reads datasets returned by the catalog while a
// writer appends to and shares the same dataset. Append rewrites SQL and
// Query and the preview refresh rewrites Preview, PreviewCols and
// PreviewVersions, all under the write lock; the accessors must therefore
// hand out copies, not the live *Dataset. Run with -race.
func TestDatasetSnapshotRace(t *testing.T) {
	c := newTestCatalog(t)
	batches := make([]*storage.Table, 20)
	for i := range batches {
		batches[i] = seedTable(t, fmt.Sprintf("batch_%d", i))
	}
	done := make(chan struct{})
	errs := make(chan error, 1)
	go func() {
		defer close(done)
		for i, tbl := range batches {
			name := tbl.Name()
			if _, err := c.CreateDatasetFromTable("alice", name, tbl, Meta{}); err != nil {
				errs <- err
				return
			}
			if err := c.Append("alice", "water", name); err != nil {
				errs <- err
				return
			}
			if i%10 == 5 {
				if err := c.ShareWith("alice", "water", []string{"bob", "carol"}[i/10]); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	var n int
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		ds, err := c.Dataset("alice", "alice.water")
		if err != nil {
			t.Fatal(err)
		}
		n += len(ds.SQL) + len(ds.Preview) + len(ds.PreviewCols) + len(ds.PreviewVersions) + len(ds.SharedWith)
		for _, d := range c.Datasets(false) {
			n += len(d.SQL) + len(d.Preview) + len(d.SharedWith)
		}
		for _, d := range c.SearchDatasets("alice", "water") {
			n += len(d.SQL) + len(d.Meta.Description)
		}
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	ds, err := c.Dataset("alice", "water")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(ds.SQL, "UNION ALL"); got != 20 {
		t.Fatalf("appends in SQL = %d, want 20", got)
	}
	if n == 0 {
		t.Fatal("the reader saw no dataset fields")
	}
}
