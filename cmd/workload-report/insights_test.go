package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"sqlshare/internal/catalog"
	"sqlshare/internal/history"
	"sqlshare/internal/obs"
	"sqlshare/internal/server"
)

// TestUsageReplayMatchesLiveServer: queries run on a server that writes a
// history log; replaying that log offline must reproduce the live
// GET /api/insights/usage snapshot exactly, CPU seconds included.
func TestUsageReplayMatchesLiveServer(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "history.jsonl")
	srv := server.New(catalog.New())
	srv.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err := srv.ConfigureHistory(history.Config{LogPath: logPath}); err != nil {
		t.Fatal(err)
	}
	srv.ConfigureCache(1<<20, time.Minute) // so repeated queries hit
	ts := httptest.NewServer(srv)
	defer ts.Close()

	do := func(user, method, path string, body any, want int) map[string]any {
		t.Helper()
		var rd io.Reader
		if s, ok := body.(string); ok {
			rd = bytes.NewReader([]byte(s))
		} else {
			data, _ := json.Marshal(body)
			rd = bytes.NewReader(data)
		}
		req, _ := http.NewRequest(method, ts.URL+path, rd)
		req.Header.Set("X-SQLShare-User", user)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		if resp.StatusCode != want {
			t.Fatalf("%s %s: %d %v", method, path, resp.StatusCode, out)
		}
		return out
	}
	for _, user := range []string{"alice", "bob"} {
		do(user, "POST", "/api/users", map[string]string{"name": user, "email": user + "@uw.edu"}, http.StatusCreated)
		staged := do(user, "POST", "/api/staging", "station,depth\nalpha,2.0\nbeta,5.0\ngamma,10.0\n", http.StatusCreated)
		do(user, "POST", "/api/datasets", map[string]any{"name": "readings", "stagedId": staged["stagedId"]}, http.StatusCreated)
	}
	statuses := map[string]int{}
	for _, q := range []struct{ user, sql string }{
		{"alice", "SELECT station FROM readings"},
		{"alice", "SELECT station FROM readings"}, // cache hit
		{"alice", "SELECT station, depth * 2 AS d FROM readings WHERE depth > 3"},
		{"bob", "SELECT COUNT(*) AS n FROM readings"},
		{"bob", "SELECT nope FROM missing"}, // failures are metered too
		{"bob", "SELECT COUNT(*) AS n FROM readings"},
	} {
		sub := do(q.user, "POST", "/api/queries", map[string]string{"sql": q.sql}, http.StatusAccepted)
		final := do(q.user, "GET", "/api/queries/"+sub["id"].(string)+"?wait=5s", nil, http.StatusOK)
		statuses[final["status"].(string)]++
	}
	if statuses["done"] != 5 || statuses["failed"] != 1 {
		t.Fatalf("query outcomes = %v, want 5 done and 1 failed", statuses)
	}

	var live obs.UsageSnapshot
	raw, _ := json.Marshal(do("alice", "GET", "/api/insights/usage", nil, http.StatusOK))
	if err := json.Unmarshal(raw, &live); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	records, err := history.ReadLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 6 {
		t.Fatalf("history log holds %d records, want 6", len(records))
	}
	replayed := replayUsage(records)

	var hits, cpu float64
	for _, u := range live.Users {
		hits += float64(u.CacheHits)
		cpu += u.CPUSeconds
	}
	if hits != 2 || cpu <= 0 {
		t.Fatalf("live snapshot: %v cache hits, %v CPU seconds; want 2 hits and CPU > 0", hits, cpu)
	}
	if !reflect.DeepEqual(replayed.Users, live.Users) {
		t.Errorf("replayed users differ from live:\n got  %+v\n want %+v", replayed.Users, live.Users)
	}
	if !reflect.DeepEqual(replayed.Templates, live.Templates) {
		t.Errorf("replayed templates differ from live:\n got  %+v\n want %+v", replayed.Templates, live.Templates)
	}
}
