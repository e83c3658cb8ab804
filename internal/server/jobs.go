package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"sqlshare/internal/catalog"
	"sqlshare/internal/engine"
	"sqlshare/internal/history"
	"sqlshare/internal/obs"
	"sqlshare/internal/ops"
)

// maxStatusWait caps the ?wait= long-poll on the status endpoint, so a
// client cannot pin a handler goroutine indefinitely. A package variable so
// tests can tighten it.
var maxStatusWait = 30 * time.Second

// jobState is the lifecycle of an asynchronous query (§3.3).
type jobState string

// Job states.
const (
	jobRunning jobState = "running"
	jobDone    jobState = "done"
	jobFailed  jobState = "failed"
	// jobKilled marks a job canceled through the live-operations kill
	// switch (DELETE /api/queries/{id}/kill) rather than failing on its
	// own.
	jobKilled jobState = "killed"
)

// job is one submitted query.
type job struct {
	mu      sync.Mutex
	id      string
	user    string
	sql     string
	dop     int  // per-query worker cap (0 = server default)
	noCache bool // bypass the result cache for this query
	state   jobState
	result  *engine.Result
	rec     *history.Record // the query's log record, set before done closes
	errText string
	aborted bool   // failed with a resource limit (row or memory; HTTP 422)
	traceID string // span trace the execution belongs to, if tracing is on
	done    chan struct{}
}

type jobTable struct {
	mu   sync.Mutex
	seq  int
	jobs map[string]*job
	// prefix namespaces ids across cluster nodes ("s0-" → "s0-q-17") so
	// the router can route a status poll by id alone; see SetJobPrefix.
	prefix string
}

func newJobTable() *jobTable { return &jobTable{jobs: map[string]*job{}} }

func (jt *jobTable) create(user, sql string) *job {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	jt.seq++
	j := &job{
		id:    fmt.Sprintf("%sq-%d", jt.prefix, jt.seq),
		user:  user,
		sql:   sql,
		state: jobRunning,
		done:  make(chan struct{}),
	}
	jt.jobs[j.id] = j
	return j
}

func (jt *jobTable) get(id string) (*job, bool) {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	j, ok := jt.jobs[id]
	return j, ok
}

// handleSubmitQuery implements the asynchronous protocol: the request is
// assigned an identifier, execution proceeds in the background, and the
// identifier is returned immediately for the client to poll.
func (s *Server) handleSubmitQuery(w http.ResponseWriter, r *http.Request) {
	user, err := s.user(r)
	if err != nil {
		s.writeErr(w, http.StatusUnauthorized, err)
		return
	}
	var req struct {
		SQL string `json:"sql"`
		// Parallelism optionally overrides the server's default worker cap
		// for this query: 1 = serial, N>1 = at most N workers. Results are
		// identical at every setting; only latency changes.
		Parallelism int `json:"parallelism"`
		// NoCache forces execution even when the server runs a result
		// cache. Results are identical either way — the flag is for
		// measurement, not correctness.
		NoCache bool `json:"no_cache"`
	}
	if err := jsonDecode(r, &req); err != nil || req.SQL == "" {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("sql is required"))
		return
	}
	if req.Parallelism < 0 {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("parallelism must be >= 0"))
		return
	}
	// The min-LSN read gate: a router fanning this query to a replica pins
	// it at-or-after the submitting client's last write.
	if !s.gateMinLSN(w, r) {
		return
	}
	j := s.jobs.create(user, req.SQL)
	j.dop = req.Parallelism
	j.noCache = req.NoCache
	s.startJob(j, r)
	out := map[string]string{"id": j.id, "status": string(jobRunning)}
	if j.traceID != "" {
		out["traceId"] = j.traceID
	}
	s.writeJSON(w, http.StatusAccepted, out)
}

// startJob launches j in the background. The execution outlives the
// submitting HTTP request, so its context detaches the request's
// cancellation but keeps the request's trace, and the trace is held open
// (RetainTrace) until the query finishes — the submit POST and the
// execution appear as one causally-linked span tree.
func (s *Server) startJob(j *job, r *http.Request) {
	s.metrics.JobQueueDepth.Add(1)
	jctx := context.WithoutCancel(r.Context())
	j.traceID = obs.TraceIDFromContext(jctx)
	release := obs.RetainTrace(jctx)
	go s.runJob(j, jctx, release)
}

// runJob executes a submitted query and records its outcome on the job.
// Jobs run traced by default: the per-operator actuals back the /trace
// endpoint, mirroring the SHOWPLAN telemetry the paper's study ran on.
// With tracing off (SetTracing(false)), /trace answers 404 for the job.
func (s *Server) runJob(j *job, ctx context.Context, release func()) {
	defer release()
	dop := j.dop
	if dop == 0 {
		dop = s.parallelism
	}
	jctx, span := obs.StartSpan(ctx, "query.job")
	span.SetAttr("job", j.id)
	res, rec, err := s.cat.QueryWithOptions(j.user, j.sql, catalog.QueryOptions{
		Trace:       s.tracing,
		MaxRows:     s.maxRows,
		MaxBytes:    s.maxBytes,
		Parallelism: dop,
		NoCache:     j.noCache,
		Context:     jctx,
		// The job id doubles as the live-operations id, so
		// DELETE /api/queries/{id}/kill addresses the same id the submit
		// response handed out.
		OpsID: j.id,
	})
	span.EndErr(err)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.rec = rec
	if err != nil {
		j.state = jobFailed
		if errors.Is(err, ops.ErrKilled) {
			j.state = jobKilled
		}
		j.errText = err.Error()
		j.aborted = errors.Is(err, engine.ErrRowLimit) || errors.Is(err, engine.ErrMemLimit)
	} else {
		j.state = jobDone
		j.result = res
	}
	s.metrics.JobQueueDepth.Add(-1)
	close(j.done)
}

// handleQueryStatus is the polling endpoint: running jobs report status,
// finished jobs return the full result.
func (s *Server) handleQueryStatus(w http.ResponseWriter, r *http.Request) {
	user, err := s.user(r)
	if err != nil {
		s.writeErr(w, http.StatusUnauthorized, err)
		return
	}
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.writeErr(w, http.StatusNotFound, fmt.Errorf("query %q not found", r.PathValue("id")))
		return
	}
	if j.user != user {
		s.writeErr(w, http.StatusForbidden, fmt.Errorf("query %q belongs to another user", j.id))
		return
	}
	// ?wait=<dur> long-polls: block until the job finishes, the bounded
	// wait elapses, or the client goes away — then report whatever state
	// the job is in. One long-poll replaces a polling loop's worth of
	// status requests without changing the response shape.
	if ws := r.URL.Query().Get("wait"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil || d < 0 {
			s.writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid wait duration %q", ws))
			return
		}
		if d > maxStatusWait {
			d = maxStatusWait
		}
		t := time.NewTimer(d)
		select {
		case <-j.done:
		case <-t.C:
		case <-r.Context().Done():
		}
		t.Stop()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := map[string]any{"id": j.id, "status": string(j.state)}
	if j.rec != nil {
		out["cache"] = j.rec.Cache
	}
	if j.traceID != "" {
		out["traceId"] = j.traceID
	}
	switch j.state {
	case jobKilled:
		out["error"] = j.errText
	case jobFailed:
		out["error"] = j.errText
		if j.aborted {
			// Row-limit aborts are a client-addressable condition (tighten
			// the query), not a server failure.
			s.writeJSON(w, http.StatusUnprocessableEntity, out)
			return
		}
	case jobDone:
		cols := j.result.ColumnNames()
		rows := make([][]string, len(j.result.Rows))
		for i, row := range j.result.Rows {
			cells := make([]string, len(row))
			for k, v := range row {
				cells[k] = v.String()
			}
			rows[i] = cells
		}
		out["columns"] = cols
		out["rows"] = rows
	}
	s.writeJSON(w, http.StatusOK, out)
}

// handleQueryPlan returns the extracted JSON plan for a submitted query —
// the per-query artifact the workload analysis consumes (§4).
func (s *Server) handleQueryPlan(w http.ResponseWriter, r *http.Request) {
	user, err := s.user(r)
	if err != nil {
		s.writeErr(w, http.StatusUnauthorized, err)
		return
	}
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.writeErr(w, http.StatusNotFound, fmt.Errorf("query %q not found", r.PathValue("id")))
		return
	}
	if j.user != user {
		s.writeErr(w, http.StatusForbidden, fmt.Errorf("query %q belongs to another user", j.id))
		return
	}
	<-j.done
	if j.rec.Plan != nil {
		s.writeJSON(w, http.StatusOK, j.rec.Plan)
		return
	}
	s.writeErr(w, http.StatusNotFound, fmt.Errorf("no plan recorded for %q", j.id))
}

// handleQueryTrace returns the per-operator execution trace of a completed
// query: estimated next to actual row counts, executions, wall time and
// output bytes per operator — the RunTimeInformation the paper's §4
// telemetry pipeline consumed from SHOWPLAN XML.
func (s *Server) handleQueryTrace(w http.ResponseWriter, r *http.Request) {
	user, err := s.user(r)
	if err != nil {
		s.writeErr(w, http.StatusUnauthorized, err)
		return
	}
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.writeErrCode(w, http.StatusNotFound, "query_unknown",
			fmt.Errorf("query %q not found", r.PathValue("id")))
		return
	}
	if j.user != user {
		s.writeErr(w, http.StatusForbidden, fmt.Errorf("query %q belongs to another user", j.id))
		return
	}
	<-j.done
	rec := j.rec
	if rec.Plan != nil && rec.Plan.Trace != nil {
		s.writeJSON(w, http.StatusOK, map[string]any{"id": j.id, "trace": rec.Plan.Trace, "cache": rec.Cache})
		return
	}
	// All three remaining cases are 404, but a client must tell them apart:
	// tracing_disabled means retrying is pointless until the operator flips
	// -no-trace; served_from_cache means re-submit with no_cache to get a
	// trace; trace_missing covers failed compiles and similar.
	if !s.tracing {
		s.writeErrCode(w, http.StatusNotFound, "tracing_disabled",
			fmt.Errorf("no trace recorded for %q: tracing is disabled on this server", j.id))
		return
	}
	if rec.Cache == catalog.CacheHit {
		s.writeErrCode(w, http.StatusNotFound, "served_from_cache",
			fmt.Errorf("no trace recorded for %q: result served from cache", j.id))
		return
	}
	s.writeErrCode(w, http.StatusNotFound, "trace_missing",
		fmt.Errorf("no trace recorded for %q", j.id))
}

func jsonDecode(r *http.Request, v any) error {
	return json.NewDecoder(r.Body).Decode(v)
}
