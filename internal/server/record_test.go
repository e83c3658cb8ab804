package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestQueryRecordSharedAcrossReaders: one record per query is shared by
// its job, the catalog log, the history ring and the usage meter. Reading
// it through the status, plan, trace and insights endpoints while other
// queries finish must be race-free (run under -race).
func TestQueryRecordSharedAcrossReaders(t *testing.T) {
	c, srv := seedQueryData(t)
	srv.ConfigureCache(1<<20, time.Minute)
	call := func(method, path, body string) (int, []byte) {
		req, _ := http.NewRequest(method, c.srv.URL+path, strings.NewReader(body))
		req.Header.Set(userHeader, "alice")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, data
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				call("GET", "/api/insights/recent?n=0", "")
				call("GET", "/api/insights/usage", "")
			}
		}
	}()
	var clients sync.WaitGroup
	for w := 0; w < 4; w++ {
		clients.Add(1)
		go func(w int) {
			defer clients.Done()
			for i := 0; i < 8; i++ {
				sql := fmt.Sprintf(`{"sql":"SELECT station FROM readings WHERE depth > %d"}`, (w+i)%3)
				code, body := call("POST", "/api/queries", sql)
				var sub struct{ ID string }
				if code != http.StatusAccepted || json.Unmarshal(body, &sub) != nil {
					t.Errorf("submit: %d %s", code, body)
					return
				}
				call("GET", "/api/queries/"+sub.ID, "") // may overlap the run
				if code, body := call("GET", "/api/queries/"+sub.ID+"/plan", ""); code != http.StatusOK {
					t.Errorf("plan %s: %d %s", sub.ID, code, body)
				}
				if code, body := call("GET", "/api/queries/"+sub.ID+"/trace", ""); code != http.StatusOK &&
					!strings.Contains(string(body), "served_from_cache") {
					t.Errorf("trace %s: %d %s", sub.ID, code, body)
				}
			}
		}(w)
	}
	clients.Wait()
	close(stop)
	readers.Wait()
	if got := srv.History().Size(); got != 32 {
		t.Errorf("history holds %d records, want 32", got)
	}
}
