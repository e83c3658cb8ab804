package corpusio

import (
	"bytes"
	"compress/gzip"
	"io"
	"reflect"
	"strings"
	"testing"

	"sqlshare/internal/synth"
)

// writeGzipLine writes raw JSON-lines content as a gzip stream.
func writeGzipLine(w io.Writer, content string) {
	gz := gzip.NewWriter(w)
	_, _ = gz.Write([]byte(content + "\n"))
	_ = gz.Close()
}

// newEmptyGzip writes an empty gzip stream.
func newEmptyGzip(w io.Writer) struct{} {
	gz := gzip.NewWriter(w)
	_ = gz.Close()
	return struct{}{}
}

func TestExportImportRoundTrip(t *testing.T) {
	corpus, _, err := synth.GenerateSQLShare(synth.SQLShareConfig{Seed: 3, Users: 10, TargetQueries: 120})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Export(&buf, corpus); err != nil {
		t.Fatal(err)
	}
	rel, err := Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Header.Corpus != "SQLShare" {
		t.Errorf("corpus name = %q", rel.Header.Corpus)
	}
	if rel.Header.Queries != len(corpus.Entries) || len(rel.Queries) != len(corpus.Entries) {
		t.Errorf("queries: header=%d records=%d want=%d",
			rel.Header.Queries, len(rel.Queries), len(corpus.Entries))
	}
	if len(rel.Datasets) != rel.Header.Datasets || len(rel.Datasets) == 0 {
		t.Errorf("datasets: %d vs header %d", len(rel.Datasets), rel.Header.Datasets)
	}
	// Per-record fidelity for the first query.
	q0, e0 := rel.Queries[0], corpus.Entries[0]
	if q0.SQL != e0.SQL || q0.User != e0.User || !q0.Time.Equal(e0.Time) {
		t.Errorf("first query mismatch: %+v vs %+v", q0, e0)
	}
	if e0.Err == "" && (q0.Plan == nil || q0.Meta == nil) {
		t.Error("plan/meta lost in round trip")
	}
}

func TestReleaseEntriesDriveAnalyses(t *testing.T) {
	corpus, _, err := synth.GenerateSQLShare(synth.SQLShareConfig{Seed: 4, Users: 10, TargetQueries: 120})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Export(&buf, corpus); err != nil {
		t.Fatal(err)
	}
	rel, err := Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	entries := rel.Queries
	if len(entries) != len(corpus.Entries) {
		t.Fatalf("entries = %d", len(entries))
	}
	// Log-level metrics must agree between live corpus and re-imported
	// release: compare a few invariants directly.
	planned := 0
	for i, e := range entries {
		if e.Err == "" && e.Plan != nil {
			planned++
			if e.Meta.Template != corpus.Entries[i].Meta.Template {
				t.Fatalf("template drift at %d", i)
			}
			if e.Meta.DistinctOperators != corpus.Entries[i].Meta.DistinctOperators {
				t.Fatalf("distinct ops drift at %d", i)
			}
		}
	}
	if planned == 0 {
		t.Fatal("no planned queries survived")
	}
}

func TestImportErrors(t *testing.T) {
	if _, err := Import(strings.NewReader("not gzip")); err == nil {
		t.Error("non-gzip input should fail")
	}
	// Empty gzip stream → no header.
	var buf bytes.Buffer
	gz := newEmptyGzip(&buf)
	_ = gz
	if _, err := Import(&buf); err == nil {
		t.Error("empty release should fail")
	}
}

func TestImportRejectsWrongVersion(t *testing.T) {
	var buf bytes.Buffer
	writeGzipLine(&buf, `{"format":99,"corpus":"x"}`)
	if _, err := Import(&buf); err == nil || !strings.Contains(err.Error(), "unsupported format") {
		t.Errorf("want unsupported-format error, got %v", err)
	}
}

func TestImportRejectsUnknownRecordKind(t *testing.T) {
	var buf bytes.Buffer
	writeGzipLine(&buf, `{"format":2,"corpus":"x"}`+"\n"+`{"kind":"mystery"}`)
	if _, err := Import(&buf); err == nil || !strings.Contains(err.Error(), "unknown record kind") {
		t.Errorf("want unknown-kind error, got %v", err)
	}
}

// TestReleaseQueriesEqualLogRecords: every query read back from a release
// file equals the in-memory log record field for field (times compared
// with Equal), plans and metadata included.
func TestReleaseQueriesEqualLogRecords(t *testing.T) {
	corpus, _, err := synth.GenerateSQLShare(synth.SQLShareConfig{Seed: 5, Users: 10, TargetQueries: 120})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Export(&buf, corpus); err != nil {
		t.Fatal(err)
	}
	rel, err := Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Queries) != len(corpus.Entries) {
		t.Fatalf("queries = %d, want %d", len(rel.Queries), len(corpus.Entries))
	}
	for i, want := range corpus.Entries {
		got := *rel.Queries[i]
		if !got.Time.Equal(want.Time) {
			t.Fatalf("query %d: time %v, want %v", i, got.Time, want.Time)
		}
		got.Time = want.Time
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("query %d differs after the round trip:\n got  %+v\n want %+v", i, &got, want)
		}
	}
}
