// Package corpusio serializes a workload corpus to the release format —
// the repository's equivalent of the query-log dataset the paper publishes
// (§4: "with permission from the users, we are releasing this dataset
// publicly"). The release bundles the query log (SQL text, author,
// timestamp, runtime, referenced datasets, the extracted JSON plan and
// Phase-2 metadata) together with the dataset catalog (definitions,
// owners, sharing state), so every analysis in internal/workload can be
// recomputed from the file alone.
package corpusio

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"sqlshare/internal/catalog"
	"sqlshare/internal/history"
	"sqlshare/internal/workload"
)

// FormatVersion identifies the release file format. Version 2 writes each
// query as the history.Record JSON object (the same object as a history
// JSONL line) instead of version 1's separate query record.
const FormatVersion = 2

// Header is the first record of a release file.
type Header struct {
	Format   int       `json:"format"`
	Corpus   string    `json:"corpus"`
	Exported time.Time `json:"exported"`
	Users    int       `json:"users"`
	Datasets int       `json:"datasets"`
	Queries  int       `json:"queries"`
}

// DatasetRecord is one dataset of the release catalog.
type DatasetRecord struct {
	Kind        string   `json:"kind"` // always "dataset"
	Owner       string   `json:"owner"`
	Name        string   `json:"name"`
	SQL         string   `json:"sql"`
	Description string   `json:"description,omitempty"`
	Tags        []string `json:"tags,omitempty"`
	IsWrapper   bool     `json:"isWrapper"`
	Public      bool     `json:"public"`
	SharedWith  []string `json:"sharedWith,omitempty"`
	Created     int64    `json:"created"` // unix seconds
	Deleted     bool     `json:"deleted,omitempty"`
}

// queryLine is one query of the release: the record itself, tagged so a
// reader can tell it from a dataset line.
type queryLine struct {
	Kind string `json:"kind"` // always "query"
	*history.Record
}

// Export writes the corpus as gzip-compressed JSON lines: one Header, then
// one DatasetRecord per dataset (including deleted ones — lifetimes need
// them), then one query line per log record in execution order.
func Export(w io.Writer, c *workload.Corpus) error {
	gz := gzip.NewWriter(w)
	enc := json.NewEncoder(gz)
	datasets := c.Catalog.Datasets(true)
	h := Header{
		Format:   FormatVersion,
		Corpus:   c.Name,
		Exported: time.Now().UTC(),
		Users:    len(c.Catalog.Users()),
		Datasets: len(datasets),
		Queries:  len(c.Entries),
	}
	if err := enc.Encode(h); err != nil {
		return err
	}
	for _, ds := range datasets {
		rec := DatasetRecord{
			Kind:        "dataset",
			Owner:       ds.Owner,
			Name:        ds.Name,
			SQL:         ds.SQL,
			Description: ds.Meta.Description,
			Tags:        ds.Meta.Tags,
			IsWrapper:   ds.IsWrapper,
			Public:      ds.Visibility == catalog.Public,
			Created:     ds.Created.Unix(),
			Deleted:     ds.Deleted,
		}
		for u := range ds.SharedWith {
			rec.SharedWith = append(rec.SharedWith, u)
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	for _, rec := range c.Entries {
		if err := enc.Encode(queryLine{Kind: "query", Record: rec}); err != nil {
			return err
		}
	}
	return gz.Close()
}

// Release is a loaded corpus file. It does not reconstruct executable
// tables (the release carries logs and definitions, not data, exactly as
// the paper's release did), but it supports every log-level analysis.
type Release struct {
	Header   Header
	Datasets []DatasetRecord
	Queries  []*history.Record
}

// Import reads a release file written by Export.
func Import(r io.Reader) (*Release, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("corpusio: %w", err)
	}
	defer gz.Close()
	sc := bufio.NewScanner(gz)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	rel := &Release{}
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if first {
			if err := json.Unmarshal([]byte(line), &rel.Header); err != nil {
				return nil, fmt.Errorf("corpusio: bad header: %w", err)
			}
			if rel.Header.Format != FormatVersion {
				return nil, fmt.Errorf("corpusio: unsupported format %d", rel.Header.Format)
			}
			first = false
			continue
		}
		var kind struct{ Kind string }
		if err := json.Unmarshal([]byte(line), &kind); err != nil {
			return nil, fmt.Errorf("corpusio: bad record: %w", err)
		}
		switch kind.Kind {
		case "dataset":
			var rec DatasetRecord
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				return nil, err
			}
			rel.Datasets = append(rel.Datasets, rec)
		case "query":
			var q queryLine
			if err := json.Unmarshal([]byte(line), &q); err != nil {
				return nil, err
			}
			rel.Queries = append(rel.Queries, q.Record)
		default:
			return nil, fmt.Errorf("corpusio: unknown record kind %q", kind.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if first {
		return nil, fmt.Errorf("corpusio: empty file")
	}
	return rel, nil
}
