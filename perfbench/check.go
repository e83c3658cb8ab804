package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sqlshare/internal/catalog"
)

// uncachedRun is one distinct query executed directly on the final
// catalog with the cache bypassed and one worker.
type uncachedRun struct {
	q  *queryExec
	ms float64
}

// checks is the outcome of the output checks after a window.
type checks struct {
	items    int
	failures []string
	// uncached holds the reference executions, in distinct-query order.
	uncached []uncachedRun
	// resubmitted counts distinct queries whose in-window result predates
	// a write to a dataset they read, so they were submitted again;
	// staleSkipped counts such queries left out (see staleCap).
	resubmitted, staleSkipped int
}

// staleCap bounds how many stale distinct queries a run submits again.
const staleCap = 16

// add folds another window's check outcome into c.
func (c *checks) add(o *checks) {
	c.items += o.items
	c.failures = append(c.failures, o.failures...)
	c.resubmitted += o.resubmitted
	c.staleSkipped += o.staleSkipped
}

func (c *checks) fail(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

// distinctQueries returns the last execution of every distinct (user,
// SQL) pair of the window, in a fixed order.
func distinctQueries(w *window) []*queryExec {
	out := make([]*queryExec, 0, len(w.last))
	for _, e := range w.last {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].user != out[j].user {
			return out[i].user < out[j].user
		}
		return out[i].sql < out[j].sql
	})
	return out
}

// runChecks verifies the program's outputs once the window has drained:
//   - every distinct query's REST result matches an order-insensitive
//     digest of Catalog.QueryWithOptions (NoCache, Parallelism 1) on the
//     final catalog. A query whose in-window run could have seen an
//     earlier state of a dataset it reads is submitted again first, up
//     to staleCap of them;
//   - every acknowledged upload exists with the rows the server reported,
//     and every append target holds its set-up rows plus its batches;
//   - with recover set, on a durable host, closing the WAL and recovering
//     the data directory read-only reproduces the live catalog's
//     fingerprint.
//
// workers > 1 runs the query checks concurrently; the traced run passes 1
// so the reference executions also time the uncached query path.
func runChecks(ctx context.Context, h *host, w *window, workers int, recover bool) *checks {
	res := &checks{}
	var qs []*queryExec
	var resubmit []bool
	var staleQs []*queryExec
	for _, q := range distinctQueries(w) {
		if stale(q, w.writes) {
			staleQs = append(staleQs, q)
			continue
		}
		qs = append(qs, q)
		resubmit = append(resubmit, false)
	}
	// Every stale query costs two executions against the final, longest
	// append chains; an evenly spaced sample of them keeps the pass short.
	step := max((len(staleQs)+staleCap-1)/staleCap, 1)
	for i := 0; i < len(staleQs); i += step {
		qs = append(qs, staleQs[i])
		resubmit = append(resubmit, true)
		res.resubmitted++
	}
	res.staleSkipped = len(staleQs) - res.resubmitted
	res.uncached = make([]uncachedRun, len(qs))
	errs := make([]string, len(qs))
	hc := newHTTPClient(workers)
	defer hc.CloseIdleConnections()
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &client{base: h.base, hc: hc}
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(qs) {
					return
				}
				ms, err := checkQuery(ctx, c, h.cat, qs[i], resubmit[i])
				res.uncached[i] = uncachedRun{q: qs[i], ms: ms}
				if err != nil {
					errs[i] = err.Error()
				}
			}
		}()
	}
	wg.Wait()
	for i, e := range errs {
		res.items++
		if e != "" {
			res.fail("query %q as %s: %s", abbrev(qs[i].sql), qs[i].user, e)
		}
	}
	checkWrites(h, w, res)
	if recover && h.dur != nil {
		res.items++
		if err := checkRecovery(h); err != nil {
			res.fail("recovery: %v", err)
		}
	}
	return res
}

// stale reports whether q's last in-window run may predate the final
// state of a dataset it reads: an append into a dataset its SQL names
// was not yet acknowledged when q was submitted. Datasets are always
// referenced in brackets, so "name]" matches both [name] and
// [owner.name].
func stale(q *queryExec, writes []*writeExec) bool {
	for _, wr := range writes {
		if wr.kind == opAppend && wr.end >= q.start && strings.Contains(q.sql, wr.target+"]") {
			return true
		}
	}
	return false
}

// checkQuery compares a query's REST result with a direct uncached
// execution and returns the direct execution's time in milliseconds.
func checkQuery(ctx context.Context, c *client, cat *catalog.Catalog, q *queryExec, resubmit bool) (float64, error) {
	id := q.id
	if !q.ok {
		return 0, fmt.Errorf("failed in the window")
	}
	if resubmit {
		st, err := c.query(ctx, q.user, q.sql)
		if err != nil {
			return 0, fmt.Errorf("re-submit: %w", err)
		}
		id = st.ID
	}
	got, err := c.result(ctx, q.user, id)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	ref, _, err := cat.QueryWithOptions(q.user, q.sql, catalog.QueryOptions{NoCache: true, Parallelism: 1})
	ms := ms(time.Since(t0))
	if err != nil {
		return ms, fmt.Errorf("reference execution: %w", err)
	}
	want := make([][]string, len(ref.Rows))
	for i, row := range ref.Rows {
		want[i] = make([]string, len(row))
		for k, v := range row {
			want[i][k] = v.String()
		}
	}
	if g, w := digest(got.Columns, got.Rows), digest(ref.ColumnNames(), want); g != w {
		return ms, fmt.Errorf("REST result (job %s, cache %q, %d rows) differs from the uncached reference (%d rows)",
			id, got.Cache, len(got.Rows), len(want))
	}
	return ms, nil
}

// digest hashes a result's columns and its rows as a multiset, so row
// order does not matter.
func digest(cols []string, rows [][]string) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = strconv.Itoa(len(r)) + "\x1f" + strings.Join(r, "\x1f")
	}
	sort.Strings(lines)
	h := sha256.New()
	h.Write([]byte(strings.Join(cols, "\x1f") + "\x1e"))
	for _, l := range lines {
		h.Write([]byte(l + "\x1e"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkWrites verifies every acknowledged upload and append target by a
// COUNT(*) on the final catalog.
func checkWrites(h *host, w *window, res *checks) {
	want := map[string]int{}    // append target → expected rows
	broken := map[string]bool{} // targets with a failed append: unknowable
	for _, wr := range w.writes {
		if wr.kind != opAppend {
			continue
		}
		full := wr.user + "." + wr.target
		if _, ok := want[full]; !ok {
			want[full] = h.rows[full]
		}
		if wr.ok {
			want[full] += wr.rows
		} else {
			broken[full] = true
		}
	}
	for _, wr := range w.writes {
		if !wr.ok {
			continue
		}
		res.items++
		if err := checkCount(h.cat, wr.user, wr.user+"."+wr.name, wr.rows); err != nil {
			res.fail("%s %s: %v", wr.kind, wr.name, err)
		}
	}
	targets := make([]string, 0, len(want))
	for t := range want {
		targets = append(targets, t)
	}
	sort.Strings(targets)
	for _, t := range targets {
		if broken[t] {
			continue
		}
		res.items++
		if err := checkCount(h.cat, strings.SplitN(t, ".", 2)[0], t, want[t]); err != nil {
			res.fail("append target %s: %v", t, err)
		}
	}
}

func checkCount(cat *catalog.Catalog, user, dataset string, want int) error {
	res, _, err := cat.QueryWithOptions(user, "SELECT COUNT(*) FROM ["+dataset+"]",
		catalog.QueryOptions{NoCache: true, Parallelism: 1})
	if err != nil {
		return err
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return fmt.Errorf("COUNT(*) returned %d rows", len(res.Rows))
	}
	if got := res.Rows[0][0].String(); got != strconv.Itoa(want) {
		return fmt.Errorf("COUNT(*) = %s, want %d", got, want)
	}
	return nil
}

// checkRecovery closes the WAL and recovers the data directory read-only;
// the recovered catalog must fingerprint the same as the live one.
func checkRecovery(h *host) error {
	live := h.cat.Fingerprint()
	if err := h.dur.Close(); err != nil {
		return fmt.Errorf("close WAL: %w", err)
	}
	rec, _, err := catalog.OpenReadOnly(h.dir)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	if got := rec.Fingerprint(); got != live {
		return fmt.Errorf("recovered fingerprint %.12s differs from live %.12s", got, live)
	}
	return nil
}

func abbrev(s string) string {
	if len(s) > 80 {
		return s[:77] + "..."
	}
	return s
}
