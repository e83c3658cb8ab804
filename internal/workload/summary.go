package workload

import "time"

// Summary is Table 2a: the workload metadata aggregate.
type Summary struct {
	Users           int
	Tables          int
	Columns         int
	Views           int // all datasets ("everything is a dataset")
	NonTrivialViews int // user-authored derived views
	Queries         int
}

// Summarize computes Table 2a over the corpus.
func Summarize(c *Corpus) Summary {
	s := Summary{
		Users:   len(c.Catalog.Users()),
		Tables:  c.Catalog.NumBaseTables(),
		Columns: c.Catalog.TotalColumns(),
		Queries: len(c.Entries),
	}
	for _, ds := range c.Catalog.Datasets(true) {
		s.Views++
		if !ds.IsWrapper {
			s.NonTrivialViews++
		}
	}
	return s
}

// QuerySummary is Table 2b: per-query feature means.
type QuerySummary struct {
	MeanLength            float64
	MeanRuntime           time.Duration
	MeanOperators         float64
	MeanDistinctOperators float64
	MeanTablesAccessed    float64
	MeanColumnsAccessed   float64
}

// SummarizeQueries computes Table 2b over the successfully planned queries.
func SummarizeQueries(c *Corpus) QuerySummary {
	entries := c.Succeeded()
	var q QuerySummary
	if len(entries) == 0 {
		return q
	}
	var runtime time.Duration
	var length, ops, dops, tables, cols int
	for _, e := range entries {
		length += e.Meta.Length
		runtime += e.Runtime()
		ops += e.Meta.NumOperators
		dops += e.Meta.DistinctOperators
		tables += len(e.Meta.Tables)
		for _, cs := range e.Meta.Columns {
			cols += len(cs)
		}
	}
	n := float64(len(entries))
	q.MeanLength = float64(length) / n
	q.MeanRuntime = runtime / time.Duration(len(entries))
	q.MeanOperators = float64(ops) / n
	q.MeanDistinctOperators = float64(dops) / n
	q.MeanTablesAccessed = float64(tables) / n
	q.MeanColumnsAccessed = float64(cols) / n
	return q
}

// QueriesPerTable is Figure 4: the distribution of how many queries touch
// each table, bucketed as the paper plots it (1, 2, 3, 4, >=5).
type QueriesPerTable struct {
	Buckets [5]int // index 0..3 = exactly 1..4 queries; index 4 = >=5
	// MostQueried is the highest per-table query count (the paper's most
	// common table was queried 766 times).
	MostQueried int
}

// ComputeQueriesPerTable computes Figure 4 over directly referenced
// datasets.
func ComputeQueriesPerTable(c *Corpus) QueriesPerTable {
	counts := map[string]int{}
	for _, e := range c.Entries {
		seen := map[string]bool{}
		for _, ds := range e.Datasets {
			if !seen[ds] {
				seen[ds] = true
				counts[ds]++
			}
		}
	}
	var out QueriesPerTable
	for _, n := range counts {
		if n > out.MostQueried {
			out.MostQueried = n
		}
		switch {
		case n >= 5:
			out.Buckets[4]++
		case n >= 1:
			out.Buckets[n-1]++
		}
	}
	return out
}
