package catalog

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"sqlshare/internal/engine"
	"sqlshare/internal/history"
	"sqlshare/internal/obs"
	"sqlshare/internal/ops"
	"sqlshare/internal/plan"
	"sqlshare/internal/qcache"
	"sqlshare/internal/sqlparser"
)

// Cache states recorded on history.Record.Cache and surfaced in EXPLAIN
// ANALYZE output, job status and traces.
const (
	CacheHit    = history.CacheHit
	CacheMiss   = history.CacheMiss
	CacheBypass = history.CacheBypass
)

// QueryOptions tunes one catalog query execution.
type QueryOptions struct {
	// Trace enables per-operator runtime instrumentation; the resulting
	// trace tree is attached to the record's Plan.
	Trace bool
	// MaxRows aborts the execution with engine.ErrRowLimit when any
	// operator materializes more than this many rows (0 = unlimited).
	MaxRows int
	// Parallelism caps the workers one query may use for intra-query
	// parallel execution: 0 = automatic (all of GOMAXPROCS), 1 = serial,
	// N>1 = at most N workers. Results are identical at every setting.
	Parallelism int
	// Context, when non-nil, cancels the execution: the engine checks it at
	// every operator boundary and between parallel morsels.
	Context context.Context
	// NoCache forces execution even when a result cache is attached; the
	// run is recorded as CacheBypass and fills nothing.
	NoCache bool
	// MaxBytes aborts the execution with engine.ErrMemLimit when its
	// reserved in-flight memory estimate exceeds this many bytes (0 =
	// unlimited) — the memory twin of MaxRows.
	MaxBytes int64
	// OpsID, when non-empty, is the id this query registers under in the
	// live-operations registry; the async job path passes its job id so
	// operators can kill by the id they already see in /api/queries. Empty
	// lets the registry assign one.
	OpsID string
}

// Query parses, permission-checks, compiles, executes and logs a query on
// behalf of user. This is the code path behind the REST query endpoint
// (§3.3).
func (c *Catalog) Query(user, sql string) (*engine.Result, *history.Record, error) {
	return c.QueryWithOptions(user, sql, QueryOptions{})
}

// QueryWithOptions is Query with execution tracing and row limits.
func (c *Catalog) QueryWithOptions(user, sql string, opts QueryOptions) (*engine.Result, *history.Record, error) {
	if opts.Context == nil {
		opts.Context = context.Background()
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	// The record is the query's run state: runQuery fills each field as its
	// phase produces the value, and the record is logged and published
	// below. A logged record is never written again.
	rec := &history.Record{
		User:    user,
		SQL:     sql,
		Cache:   CacheBypass,
		TraceID: obs.TraceIDFromContext(opts.Context),
	}
	// Phase spans are retained-only instrumentation: runQuery records phase
	// boundaries into a flat recorder, and the detail spans (parse →
	// authorize → cache.probe → plan.compile → execute, plus the operator
	// waterfall) materialize under the caller's span only if the tail
	// sampler keeps the trace. A sampled-out point query pays for one
	// recorder and one closure, not five span lifecycles.
	cur := obs.SpanFromContext(opts.Context)
	var phases *phaseRecorder
	if cur != nil {
		phases = recorderPool.Get().(*phaseRecorder)
	}
	// Register with the live-operations registry, when one is attached: the
	// query becomes visible in /api/queries/running and killable by id, and
	// the execution context is replaced by the registry's cancelable one.
	var live *ops.Entry
	if reg := c.liveOps.Load(); reg != nil {
		var lctx context.Context
		live, lctx = reg.Register(opts.Context, opts.OpsID, user, sql, opts.Parallelism)
		opts.Context = lctx
		defer live.Finish()
	}
	run := c.runQuery(rec, opts, phases, live)
	phases.end(run.err)
	rec.RuntimeMillis = millis(time.Since(start))
	if run.trace != nil {
		// The one conversion to the spliced export tree, outside the read
		// lock. Every reader after the engine uses it: EXPLAIN ANALYZE, the
		// scanned-rows metric, the operator spans and the record itself.
		rec.Plan.Trace = plan.FromTrace(run.trace)
	}
	if phases != nil {
		if rec.Plan != nil {
			phases.opTree = rec.Plan.Trace
		}
		// DeferOn guarantees Release (back to the pool) whether or not the
		// tail sampler retains the trace and materializes the phases.
		cur.DeferOn(phases)
	}

	res := run.res
	if run.err == nil && run.explain {
		// EXPLAIN [ANALYZE]: the result set is the operator tree itself —
		// estimates alone, or estimates beside traced actuals.
		if run.analyze {
			res = explainAnalyzeResult(rec.Plan.Trace, rec.Cache)
		} else {
			res = explainResult(rec.Plan.Root)
		}
	}
	if run.err != nil {
		rec.Err = run.err.Error()
	} else {
		rec.RowsReturned = len(res.Rows)
	}

	c.recordQueryMetrics(rec, run)

	// The digest is filled before the record is published: history and
	// usage metering key on it.
	hist := c.history.h.Load()
	var usage *obs.UsageMeter
	if m := c.metrics.Load(); m != nil {
		usage = m.Usage
	}
	if hist != nil || usage != nil || run.storeKey != "" {
		ensureDigest(rec)
	}

	// Fill the result cache outside the lock: the versions in storeKey were
	// captured under the read lock the execution held, so a mutation that
	// raced this fill simply makes the stored entry unreachable. storeKey
	// is set only on a successful, compiled, non-EXPLAIN run.
	if run.storeKey != "" {
		if qc := c.resultCache.Load(); qc != nil {
			stored := *rec.Plan
			stored.Trace = nil
			qc.PutResult(run.storeKey, &qcache.ResultEntry{
				Result: res,
				Plan:   &stored,
				Meta:   rec.Meta,
				Digest: rec.Digest,
				Bytes:  rec.ResultBytes,
			})
		}
	}

	c.mu.Lock()
	c.seq++
	rec.ID = c.seq
	rec.Time = c.now()
	c.log = append(c.log, rec)
	c.mu.Unlock()

	if hist != nil {
		hist.Record(rec)
	}
	if usage != nil {
		rec.Meter(usage)
	}

	if run.err != nil {
		return nil, rec, run.err
	}
	return res, rec, nil
}

// millis converts a duration to the record's fractional milliseconds.
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// resultBytesOf estimates a result's payload width: the sum of value widths
// across all cells, the same estimate the result cache charges.
func resultBytesOf(res *engine.Result) int64 {
	var n int64
	for _, row := range res.Rows {
		for _, v := range row {
			n += int64(v.SizeBytes())
		}
	}
	return n
}

// queryRun is what runQuery hands back beside the record it fills: the
// result (or error), the compiled plan, and the raw engine trace, which
// the caller converts to the record's spliced trace outside the lock.
type queryRun struct {
	res   *engine.Result
	err   error
	plan  *engine.Plan
	trace *engine.TraceNode
	// explain marks an EXPLAIN [ANALYZE] statement; analyze additionally
	// forces tracing and executes the inner query.
	explain bool
	analyze bool
	// workers is the largest worker count any operator actually used
	// (1 = the whole query ran serial).
	workers int
	// storeKey, when non-empty, is the version-fenced key a successful
	// result should be stored under. The versions inside it were captured
	// under the same read lock the execution ran under, so filling after
	// the lock is released is safe: a concurrent mutation produces a new
	// key, never a match for this one.
	storeKey string
}

// recordQueryMetrics reports one finished query to the metrics bundle, if
// one is attached. The hit histogram observes the end-to-end runtime (the
// full round trip, not the phase split).
func (c *Catalog) recordQueryMetrics(rec *history.Record, run queryRun) {
	m := c.metrics.Load()
	if m == nil {
		return
	}
	m.QueriesTotal.Inc()
	switch rec.Cache {
	case CacheHit:
		m.CacheHits.Inc()
		m.CacheHitSeconds.Observe(rec.RuntimeMillis / 1e3)
	case CacheMiss:
		m.CacheMisses.Inc()
	}
	m.CompileSeconds.Observe(rec.CompileMillis / 1e3)
	if run.plan != nil {
		m.ExecSeconds.Observe(rec.ExecuteMillis / 1e3)
	}
	if run.workers > 1 {
		m.ParallelQueries.Inc()
	}
	if run.err != nil {
		m.QueriesFailed.Inc()
		if errors.Is(run.err, engine.ErrRowLimit) || errors.Is(run.err, engine.ErrMemLimit) {
			m.QueriesAborted.Inc()
		}
	} else if run.res != nil {
		m.RowsReturned.Add(int64(len(run.res.Rows)))
	}
	if rec.Plan != nil && rec.Plan.Trace != nil {
		var scanned int64
		rec.Plan.Trace.WalkTrace(func(t *plan.TraceNode) {
			if t.Object != "" {
				scanned += t.ActualRows
			}
		})
		m.RowsScanned.Add(scanned)
	}
}

// phaseRec is one recorded pipeline phase, enough to rebuild its span.
type phaseRec struct {
	phase        ops.Phase
	start        time.Time
	dur          time.Duration
	err          error
	attrK, attrV string
	rows, bytes  int64
	cpu          time.Duration
}

// setAttr records the phase's single attribute. Nil-safe so call sites can
// annotate the phase the clock returned without re-checking the recorder.
func (p *phaseRec) setAttr(k, v string) {
	if p != nil {
		p.attrK, p.attrV = k, v
	}
}

// phaseSpans names the span of each pipeline phase.
var phaseSpans = [...]string{
	ops.PhaseParse:       "sql.parse",
	ops.PhaseAuthorize:   "authorize",
	ops.PhaseCacheProbe:  "cache.probe",
	ops.PhasePlanCompile: "plan.compile",
	ops.PhaseExecute:     "execute",
}

// phaseRecorder captures the pipeline phases of one traced run so their
// detail spans can be deferred to trace assembly (retained traces only).
// A nil recorder — any untraced run — records nothing, but its next still
// publishes the phase to the live registry.
type phaseRecorder struct {
	phases [len(phaseSpans)]phaseRec
	// n counts the closed phases; when open is set, phases[n] is the
	// phase in progress.
	n    int
	open bool
	// opTree is the query's spliced operator trace, so the waterfall can
	// hang off the materialized execute span.
	opTree *plan.TraceNode
}

// next is the query's phase clock: one call publishes phase to the live
// registry, closes the open span phase and starts phase at the same
// instant. It returns the started phase for annotation (nil when the run
// is untraced).
func (r *phaseRecorder) next(live *ops.Entry, phase ops.Phase) *phaseRec {
	live.SetPhase(phase)
	if r == nil {
		return nil
	}
	now := time.Now()
	r.close(now, nil)
	r.open = true
	p := &r.phases[r.n]
	*p = phaseRec{phase: phase, start: now}
	return p
}

// end closes the open phase, ending it with err. Nil-safe.
func (r *phaseRecorder) end(err error) {
	if r != nil {
		r.close(time.Now(), err)
	}
}

func (r *phaseRecorder) close(now time.Time, err error) {
	if !r.open {
		return
	}
	p := &r.phases[r.n]
	p.dur, p.err = now.Sub(p.start), err
	r.n++
	r.open = false
}

// recorderPool recycles phase recorders: one is taken per traced query and
// always returned (DeferOn's Release guarantee), so steady-state tracing
// records phases without allocating.
var recorderPool = sync.Pool{New: func() any { return new(phaseRecorder) }}

// Release implements obs.Deferred: reset and return to the pool.
func (r *phaseRecorder) Release() {
	*r = phaseRecorder{}
	recorderPool.Put(r)
}

// Materialize implements obs.Deferred: render the recorded phases as
// completed children of sp, the operator waterfall under the execute
// phase. Runs only after the tail sampler decided to retain the trace.
func (r *phaseRecorder) Materialize(sp *obs.Span) {
	for i := 0; i < r.n; i++ {
		p := &r.phases[i]
		ch := sp.Child(phaseSpans[p.phase], p.start, p.dur)
		if ch == nil {
			return
		}
		ch.Fail(p.err)
		if p.attrK != "" {
			ch.SetAttr(p.attrK, p.attrV)
		}
		ch.AddRows(p.rows)
		ch.AddBytes(p.bytes)
		ch.AddCPU(p.cpu)
		if p.phase == ops.PhaseExecute && r.opTree != nil {
			attachOperatorSpans(ch, r.opTree, p.start)
		}
	}
}

// runQuery performs the read phase of Query under the read lock, filling
// rec as each phase produces its value: Datasets, Cache, CompileMillis,
// Plan and Meta right after compile (one extraction per query), then
// ExecuteMillis and ResultBytes. phases, nil when the request carries no
// active trace, records the pipeline phases so the caller can defer them
// as sibling spans under its span; live publishes the same phases to the
// live-operations registry.
func (c *Catalog) runQuery(rec *history.Record, opts QueryOptions, phases *phaseRecorder, live *ops.Entry) queryRun {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var run queryRun
	start := time.Now()
	resultKey, err := c.prepareLocked(rec, opts, &run, phases, live)
	rec.CompileMillis = millis(time.Since(start))
	if err != nil || run.plan == nil {
		// The one exit for parse, authorize and compile failures, and for
		// a cache hit (run.res holds the cached result).
		run.err = err
		return run
	}
	// The query's one plan extraction. The live registry takes plan
	// identity from it: the normalized template (what history clusters on;
	// the registry hashes it into a digest only when a snapshot asks) and
	// the progress-estimate denominator.
	rec.Plan = plan.FromEngine(rec.SQL, run.plan)
	rec.Meta = plan.Extract(rec.SQL, rec.Plan)
	live.SetPlan(rec.Meta.Template, run.plan.EstRowsTotal())
	if run.explain && !run.analyze {
		// Plain EXPLAIN compiles only; the caller renders the estimates.
		return run
	}
	ep := phases.next(live, ops.PhaseExecute)
	ctx := &engine.ExecContext{
		Now: c.now(), MaxRows: opts.MaxRows, MaxBytes: opts.MaxBytes,
		DOP: opts.Parallelism, Ctx: opts.Context, Progress: live.Progress(),
	}
	if opts.Trace || run.analyze {
		// EXPLAIN ANALYZE executes with tracing forced on: the result is
		// the estimate-vs-actual operator tree.
		ctx.EnableTracing()
	}
	execStart := time.Now()
	res, err := run.plan.Execute(ctx)
	execute := time.Since(execStart)
	rec.ExecuteMillis = millis(execute)
	run.trace = run.plan.BuildTrace(ctx)
	run.workers = ctx.MaxWorkers()
	if ep != nil {
		ep.cpu = execute
		if run.workers > 1 {
			ep.setAttr("workers", strconv.Itoa(run.workers))
		}
	}
	if err != nil {
		run.err = err
		return run
	}
	run.res = res
	rec.ResultBytes = resultBytesOf(res)
	if ep != nil {
		ep.rows = int64(len(res.Rows))
		ep.bytes = rec.ResultBytes
	}
	if resultKey != "" && run.plan.Deterministic() {
		run.storeKey = resultKey
	}
	return run
}

// prepareLocked runs the pipeline up to execution — parse, authorize,
// cache probe, compile — filling rec.Datasets and rec.Cache. It leaves the
// compiled plan in run.plan or, on a cache hit, the cached result in
// run.res and the cached plan artifacts on rec. It returns the key a
// successful execution should fill ("" when the result is not cacheable).
// The caller holds the read lock.
func (c *Catalog) prepareLocked(rec *history.Record, opts QueryOptions, run *queryRun, phases *phaseRecorder, live *ops.Entry) (string, error) {
	phases.next(live, ops.PhaseParse)
	stmt, err := sqlparser.ParseStatement(rec.SQL)
	if err != nil {
		return "", err
	}
	var q sqlparser.QueryExpr
	switch s := stmt.(type) {
	case *sqlparser.ExplainStmt:
		run.explain, run.analyze = true, s.Analyze
		q = s.Query
	case *sqlparser.QueryStatement:
		q = s.Query
	}
	// Permission-check every directly referenced dataset before compiling.
	auth := phases.next(live, ops.PhaseAuthorize)
	for _, name := range sqlparser.ReferencedTables(q) {
		if strings.HasPrefix(name, basePrefix) {
			return "", &AccessError{User: rec.User, Dataset: name, Reason: "base tables are internal"}
		}
		ds, err := c.lookupLocked(rec.User, name)
		if err != nil {
			return "", err
		}
		if err := c.checkAccessLocked(rec.User, ds); err != nil {
			return "", err
		}
		rec.Datasets = append(rec.Datasets, ds.FullName())
	}
	auth.setAttr("datasets", strconv.Itoa(len(rec.Datasets)))
	// Probe the version-fenced cache. The closure versions are read under
	// the same read lock the whole run holds, so they describe exactly the
	// catalog state this execution observes — captured before execution
	// starts, as the fencing contract requires. EXPLAIN always bypasses:
	// its product is the plan, not the result.
	probe := phases.next(live, ops.PhaseCacheProbe)
	cur := obs.SpanFromContext(opts.Context)
	cache := c.resultCache.Load()
	cacheable := cache != nil && !opts.NoCache && !run.explain && q != nil
	var resultKey, planKey string
	if cacheable {
		canonical := q.SQL()
		vv, ok := c.versionClosureLocked(rec.User, q)
		if !ok {
			// Unresolvable dependency closure (the compile below will fail,
			// or resolution is ambiguous): don't cache against it.
			cacheable = false
		} else {
			resultKey = qcache.ResultKey(rec.User, canonical, opts.MaxRows, vv)
			planKey = qcache.PlanKey(rec.User, canonical, opts.MaxRows, vv)
			if ent := cache.GetResult(resultKey); ent != nil {
				rec.Cache = CacheHit
				rec.Plan, rec.Meta, rec.Digest = ent.Plan, ent.Meta, ent.Digest
				rec.ResultBytes = ent.Bytes
				run.res = ent.Result
				// The cache disposition must land on a *live* span: the
				// tail sampler reads it before deferred phases materialize.
				cur.SetAttr("cache", CacheHit)
				if probe != nil {
					probe.setAttr("cache", CacheHit)
					probe.rows = int64(len(ent.Result.Rows))
					probe.bytes = ent.Bytes
				}
				return "", nil
			}
			rec.Cache = CacheMiss
		}
	}
	// Tag the disposition only when a cache was in play or the caller
	// explicitly skipped one: the tail sampler retains "bypass" traces as
	// interesting, which a cacheless server's every query is not.
	if cache != nil || opts.NoCache {
		cur.SetAttr("cache", rec.Cache)
		probe.setAttr("cache", rec.Cache)
	}
	comp := phases.next(live, ops.PhasePlanCompile)
	if cacheable {
		if run.plan = cache.GetPlan(planKey); run.plan != nil {
			comp.setAttr("planCache", "hit")
			return resultKey, nil
		}
	}
	p, err := engine.Compile(q, c.resolverLocked(rec.User))
	if err != nil {
		return "", err
	}
	if cacheable {
		cache.PutPlan(planKey, p)
	}
	run.plan = p
	return resultKey, nil
}

// attachOperatorSpans bridges the query's spliced operator trace into the
// span tree as completed children of the execute span, node for node with
// the trace that /trace and EXPLAIN ANALYZE show. Operator wall times are
// inclusive of children, and per-operator start offsets are not tracked by
// the engine, so every bridged span starts at the execution start: the
// waterfall shows relative operator cost, not scheduling order.
func attachOperatorSpans(parent *obs.Span, t *plan.TraceNode, start time.Time) {
	if parent == nil || t == nil {
		return
	}
	sp := parent.Child("op:"+t.PhysicalOp, start, time.Duration(t.WallMillis*float64(time.Millisecond)))
	if sp == nil {
		return
	}
	sp.SetAttr("object", t.Object)
	if t.Workers > 1 {
		sp.SetAttr("workers", strconv.FormatInt(t.Workers, 10))
	}
	sp.AddRows(t.ActualRows)
	sp.AddBytes(t.ActualBytes)
	for _, ch := range t.Children {
		attachOperatorSpans(sp, ch, start)
	}
}

// Log returns the query log in execution order.
func (c *Catalog) Log() []*history.Record {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]*history.Record(nil), c.log...)
}

// LogSize returns the number of logged queries.
func (c *Catalog) LogSize() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.log)
}
