package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// userHeader is the server's identity header.
const userHeader = "X-SQLShare-User"

// pollWait is the long-poll window of one status request.
const pollWait = "10s"

// client is a lean REST client: it decodes only the fields the benchmark
// needs, so the generator takes as little CPU from the server as it can.
type client struct {
	base string
	hc   *http.Client
	// reqTime, when non-nil, accumulates the round-trip time of every
	// request this client makes (traced runs only; one client per
	// goroutine, so no lock).
	reqTime *time.Duration
	reqs    *int
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}}
}

// do sends one request and decodes a JSON reply into out (nil skips it).
// The body is drained so the connection is reused.
func (c *client) do(ctx context.Context, method, path, user string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if user != "" {
		req.Header.Set(userHeader, user)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	if out != nil {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if c.reqTime != nil {
		*c.reqTime += time.Since(start)
		*c.reqs++
	}
	if err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

func (c *client) doJSON(ctx context.Context, method, path, user string, payload, out any) (int, error) {
	body, err := json.Marshal(payload)
	if err != nil {
		return 0, err
	}
	return c.do(ctx, method, path, user, body, out)
}

// expect turns an unexpected status code into an error.
func expect(code, want int, what string, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if code != want {
		return fmt.Errorf("%s: HTTP %d", what, code)
	}
	return nil
}

func (c *client) createUser(ctx context.Context, name string) error {
	code, err := c.doJSON(ctx, "POST", "/api/users", "",
		map[string]string{"name": name, "email": name + "@bench.invalid"}, nil)
	return expect(code, http.StatusCreated, "create user "+name, err)
}

// upload stages data and creates dataset name from it, returning the
// ingested row count.
func (c *client) upload(ctx context.Context, user, name string, data []byte) (int, error) {
	var staged struct {
		StagedID string `json:"stagedId"`
	}
	code, err := c.do(ctx, "POST", "/api/staging", user, data, &staged)
	if err := expect(code, http.StatusCreated, "stage "+name, err); err != nil {
		return 0, err
	}
	var created struct {
		Ingest struct {
			Rows int `json:"rows"`
		} `json:"ingest"`
	}
	code, err = c.doJSON(ctx, "POST", "/api/datasets", user,
		map[string]string{"name": name, "stagedId": staged.StagedID}, &created)
	if err := expect(code, http.StatusCreated, "create "+name, err); err != nil {
		return 0, err
	}
	return created.Ingest.Rows, nil
}

func (c *client) appendTo(ctx context.Context, user, target, source string) error {
	code, err := c.doJSON(ctx, "POST", "/api/datasets/"+user+"/"+target+"/append", user,
		map[string]string{"source": source}, nil)
	return expect(code, http.StatusOK, "append "+source+" to "+target, err)
}

func (c *client) makePublic(ctx context.Context, user, name string) error {
	code, err := c.doJSON(ctx, "PUT", "/api/datasets/"+user+"/"+name+"/permissions", user,
		map[string]any{"public": true}, nil)
	return expect(code, http.StatusOK, "share "+name, err)
}

// jobStatus is the part of a status reply the timed loop reads; the rows
// of a finished job are skipped by the decoder, not materialized.
type jobStatus struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error"`
	Cache  string `json:"cache"`
}

// jobResult is a finished job's full reply, read only by the check pass.
type jobResult struct {
	jobStatus
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// query submits sql and long-polls until the job reaches a terminal
// status. A failed or killed job is returned as an error with its status.
func (c *client) query(ctx context.Context, user, sql string) (jobStatus, error) {
	var st jobStatus
	code, err := c.doJSON(ctx, "POST", "/api/queries", user, map[string]string{"sql": sql}, &st)
	if err := expect(code, http.StatusAccepted, "submit", err); err != nil {
		return st, err
	}
	id := st.ID
	for {
		st = jobStatus{}
		code, err = c.do(ctx, "GET", "/api/queries/"+id+"?wait="+pollWait, user, nil, &st)
		if err != nil {
			return st, fmt.Errorf("poll %s: %w", id, err)
		}
		switch st.Status {
		case "done":
			if code != http.StatusOK {
				return st, fmt.Errorf("poll %s: HTTP %d", id, code)
			}
			st.ID = id
			return st, nil
		case "failed", "killed":
			return st, fmt.Errorf("query %s %s (HTTP %d): %s", id, st.Status, code, st.Error)
		case "running":
		default:
			return st, fmt.Errorf("poll %s: HTTP %d, status %q", id, code, st.Status)
		}
	}
}

// result fetches a finished job's columns and rows.
func (c *client) result(ctx context.Context, user, id string) (*jobResult, error) {
	var r jobResult
	code, err := c.do(ctx, "GET", "/api/queries/"+id, user, nil, &r)
	if err := expect(code, http.StatusOK, "result "+id, err); err != nil {
		return nil, err
	}
	if r.Status != "done" {
		return nil, fmt.Errorf("result %s: status %q", id, r.Status)
	}
	return &r, nil
}
