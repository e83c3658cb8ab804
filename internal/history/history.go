// Package history is the continuous workload-insights subsystem: it turns
// the paper's retrospective query-log study (§4–§6) into an always-on
// service over the live log. Every executed statement is recorded — SQL
// text, user, datasets, timings, row counts, error, plan digest and the
// per-operator execution trace — into a bounded in-memory ring and,
// optionally, an append-only JSONL log with size-based rotation. An
// incremental analyzer folds each record into live aggregates: the
// operator-frequency mix (Fig 9), table/column touch counts (Fig 4),
// latency and query-length distributions (Fig 7), distinct queries per
// user (§6.2), and user sessions grouped by idle gaps (§7). The analyzer
// answers the REST insights endpoints; the JSONL log lets
// cmd/workload-report reproduce the same aggregates offline after the
// server process is gone.
package history

import (
	"log/slog"
	"strings"
	"sync"
	"time"

	"sqlshare/internal/obs"
	"sqlshare/internal/plan"
)

// Cache dispositions recorded on Record.Cache: how the version-fenced
// result cache took part in one execution.
const (
	// CacheHit: the result was served from the cache; nothing executed.
	CacheHit = "hit"
	// CacheMiss: the cache was probed, missed, and the query executed.
	CacheMiss = "miss"
	// CacheBypass: the cache was not probed (detached, NoCache, EXPLAIN,
	// or an unresolvable dependency closure).
	CacheBypass = "bypass"
)

// Record is one executed statement: the single per-query record of the
// system and the unit of the released workload corpus (§4). The catalog
// builds it once, at query end, and the same pointer then lands in the
// catalog log, the history ring and analyzer, the usage meter, the
// server's job table and the release file. Its JSON encoding is the one
// serialized form: a history JSONL line, an /api/insights/recent item and
// a release query line (which adds "kind":"query") are the same object.
// A Record is not modified once the catalog has logged it.
type Record struct {
	ID   int       `json:"id"`
	Time time.Time `json:"time"`
	User string    `json:"user"`
	SQL  string    `json:"sql"`
	// Datasets lists the dataset full names the statement referenced.
	Datasets []string `json:"datasets,omitempty"`
	// CompileMillis covers parse, permission checks, cache probe and plan
	// compile; ExecuteMillis the execution. RuntimeMillis is the
	// end-to-end wall time of the catalog query path.
	CompileMillis float64 `json:"compileMillis"`
	ExecuteMillis float64 `json:"executeMillis"`
	RuntimeMillis float64 `json:"runtimeMillis"`
	RowsReturned  int     `json:"rowsReturned"`
	// Err records a failed execution; failed statements are logged too.
	Err string `json:"error,omitempty"`
	// Digest is the stable hash of the normalized operator tree
	// (plan.QueryPlan.Digest); statements that differ only in literals
	// share one. The catalog fills it only when history, usage metering
	// or the result cache wants it, keeping template hashing off the bare
	// query path.
	Digest string `json:"digest,omitempty"`
	// Cache is CacheHit, CacheMiss or CacheBypass.
	Cache string `json:"cache,omitempty"`
	// TraceID links the statement to its request span tree in the trace
	// store (empty when it ran outside an active trace).
	TraceID string `json:"traceId,omitempty"`
	// ResultBytes estimates the result payload width (sum of value
	// widths), the bytes dimension of per-user resource accounting.
	ResultBytes int64 `json:"resultBytes,omitempty"`
	// Plan and Meta are the Phase 1/Phase 2 extraction outputs. Plan.Trace
	// holds the per-operator execution trace when the statement ran
	// traced. A cache hit carries the plan artifacts cached with its
	// result.
	Plan *plan.QueryPlan `json:"plan,omitempty"`
	Meta *plan.Metadata  `json:"meta,omitempty"`
}

// Failed reports whether the statement ended in an error.
func (r *Record) Failed() bool { return r.Err != "" }

// Runtime returns the end-to-end wall time as a duration.
func (r *Record) Runtime() time.Duration {
	return time.Duration(r.RuntimeMillis * float64(time.Millisecond))
}

// Meter folds the statement into a usage meter. CPU is estimated as
// compile+execute wall time — honest for this engine's mostly-serial
// phases; parallel operators under-report slightly. The live catalog and
// the offline replay of a history log both meter through this method, so
// their snapshots agree exactly.
func (r *Record) Meter(m *obs.UsageMeter) {
	m.Record(r.User, r.Digest, (r.CompileMillis+r.ExecuteMillis)/1000,
		int64(r.RowsReturned), r.ResultBytes, r.Failed(), r.Cache == CacheHit)
}

// Config tunes a History instance. The zero value is usable: a 1024-record
// ring, no persistence, no slow-query log, the conventional 30-minute
// session gap.
type Config struct {
	// RingSize bounds the in-memory record ring (default 1024).
	RingSize int
	// LogPath enables JSONL persistence when non-empty.
	LogPath string
	// LogMaxBytes triggers rotation (default 64 MiB); LogKeep is how many
	// rotated generations survive (default 3).
	LogMaxBytes int64
	LogKeep     int
	// SlowThreshold marks statements at or above this runtime as slow:
	// they are logged through Logger with their plan digest and counted in
	// SlowQueries. Zero disables the slow-query log.
	SlowThreshold time.Duration
	// SessionGap is the idle threshold separating user sessions (default
	// DefaultSessionGap).
	SessionGap time.Duration
	// Logger receives slow-query and log-rotation records (default
	// slog.Default()).
	Logger *slog.Logger
	// SlowQueries, when set, counts slow statements labeled by plan
	// digest; RecordsTotal counts every recorded statement.
	SlowQueries  *obs.CounterVec
	RecordsTotal *obs.Counter
}

// DefaultSessionGap is the idle threshold separating sessions — the
// conventional 30 minutes of web-log analysis, as in §7.
const DefaultSessionGap = 30 * time.Minute

// History records executed statements and maintains the live aggregates.
// All methods are safe for concurrent use.
type History struct {
	cfg      Config
	ring     *ring
	analyzer *Analyzer
	log      *LogWriter // nil when persistence is off

	mu      sync.Mutex
	logErrs int // append failures (reported once per failure via Logger)
}

// New builds a History from cfg. It opens (and appends to) the JSONL log
// when cfg.LogPath is set.
func New(cfg Config) (*History, error) {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 1024
	}
	if cfg.SessionGap <= 0 {
		cfg.SessionGap = DefaultSessionGap
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	h := &History{
		cfg:      cfg,
		ring:     newRing(cfg.RingSize),
		analyzer: NewAnalyzer(cfg.SessionGap, cfg.SlowThreshold),
	}
	if cfg.LogPath != "" {
		lw, err := NewLogWriter(cfg.LogPath, cfg.LogMaxBytes, cfg.LogKeep)
		if err != nil {
			return nil, err
		}
		lw.onRotate = func(gen string) {
			cfg.Logger.Info("history log rotated", "path", cfg.LogPath, "rotatedTo", gen)
		}
		h.log = lw
	}
	return h, nil
}

// Record folds one executed statement into the history: the ring, the
// live aggregates, the JSONL log, and — past the threshold — the
// slow-query log and metric.
func (h *History) Record(rec *Record) {
	if rec == nil {
		return
	}
	h.ring.push(rec)
	h.analyzer.Fold(rec)
	if h.cfg.RecordsTotal != nil {
		h.cfg.RecordsTotal.Inc()
	}
	if h.cfg.SlowThreshold > 0 && rec.Runtime() >= h.cfg.SlowThreshold {
		digest := rec.Digest
		if digest == "" {
			digest = "none"
		}
		h.cfg.Logger.Warn("slow query",
			"user", rec.User,
			"digest", digest,
			"traceId", rec.TraceID,
			"runtimeMs", rec.RuntimeMillis,
			"rows", rec.RowsReturned,
			"error", rec.Err,
			"sql", truncateSQL(rec.SQL, 400),
		)
		if h.cfg.SlowQueries != nil {
			h.cfg.SlowQueries.With(digest).Inc()
		}
	}
	if h.log != nil {
		if err := h.log.Append(rec); err != nil {
			h.mu.Lock()
			h.logErrs++
			h.mu.Unlock()
			h.cfg.Logger.Error("history log append failed", "path", h.cfg.LogPath, "error", err)
		}
	}
}

// Analyzer exposes the live aggregates for the insights endpoints.
func (h *History) Analyzer() *Analyzer { return h.analyzer }

// Recent returns up to n of the most recent records, newest first
// (n <= 0 returns everything in the ring).
func (h *History) Recent(n int) []*Record { return h.ring.recent(n) }

// Size returns the number of records currently held in the ring.
func (h *History) Size() int { return h.ring.size() }

// SlowThreshold returns the configured slow-query threshold (0 = off).
func (h *History) SlowThreshold() time.Duration { return h.cfg.SlowThreshold }

// LogPath returns the JSONL log path ("" when persistence is off).
func (h *History) LogPath() string { return h.cfg.LogPath }

// Close flushes and closes the JSONL log, if any.
func (h *History) Close() error {
	if h.log == nil {
		return nil
	}
	return h.log.Close()
}

// truncateSQL bounds the statement text in slow-query log records.
func truncateSQL(sql string, max int) string {
	sql = strings.Join(strings.Fields(sql), " ")
	if len(sql) <= max {
		return sql
	}
	return sql[:max] + "..."
}

// ---------------------------------------------------------------- ring

// ring is a fixed-capacity circular buffer of records.
type ring struct {
	mu   sync.Mutex
	buf  []*Record
	next int
	full bool
}

func newRing(capacity int) *ring { return &ring{buf: make([]*Record, capacity)} }

func (r *ring) push(rec *Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = rec
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

func (r *ring) size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// recent returns up to n records, newest first.
func (r *ring) recent(n int) []*Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := r.next
	if r.full {
		total = len(r.buf)
	}
	if n <= 0 || n > total {
		n = total
	}
	out := make([]*Record, 0, n)
	for i := 1; i <= n; i++ {
		idx := r.next - i
		if idx < 0 {
			idx += len(r.buf)
		}
		out = append(out, r.buf[idx])
	}
	return out
}
