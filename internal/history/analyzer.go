package history

import (
	"sort"
	"sync"
	"time"

	"sqlshare/internal/obs"
)

// DefLengthBuckets are the query-length buckets (ASCII characters) of the
// live length distribution, spanning the range of Figure 7.
var DefLengthBuckets = []float64{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}

// maxSlowKept bounds the recent-slow-statements ring.
const maxSlowKept = 256

// maxClosedSessions bounds the recent-closed-sessions ring.
const maxClosedSessions = 512

// Analyzer folds records into the live §4-style aggregates incrementally,
// so the running server can answer the questions the paper asked of its
// multi-year log without replaying it. All methods are safe for
// concurrent use.
type Analyzer struct {
	mu sync.Mutex

	sessionGap    time.Duration
	slowThreshold time.Duration

	first, last time.Time
	queries     int
	failed      int
	cacheHits   int
	rows        int64
	runtime     time.Duration

	// latency and lengths reuse the obs histogram machinery (lock-free
	// observation, Prometheus-compatible quantiles).
	latency *obs.Histogram
	lengths *obs.Histogram
	// reg is the private registry backing the histograms above and the
	// per-template latency histograms below.
	reg *obs.Registry
	// templateLat tracks a latency histogram per plan-template digest,
	// capped at maxTemplateLat entries (first-come) so an adversarial
	// workload cannot grow it without bound. It feeds the per-template p99
	// overload signal.
	templateLat map[string]*obs.Histogram

	operators map[string]int
	tables    map[string]*tableAgg
	templates map[string]int // plan digest → occurrences
	users     map[string]*userAgg

	sessionsClosed int
	closedSessions []SessionInfo // ring, most recent last
	slow           []SlowInfo    // ring, most recent last
}

type tableAgg struct {
	touches int
	columns map[string]int
}

type userAgg struct {
	queries  int
	failed   int
	runtime  time.Duration
	distinct map[uint64]struct{} // FNV of normalized SQL text
	first    time.Time
	lastSeen time.Time

	// Open-session state.
	sessions   int
	curStart   time.Time
	curEnd     time.Time
	curQueries int
}

// NewAnalyzer creates an empty analyzer. gap <= 0 uses DefaultSessionGap.
func NewAnalyzer(gap, slowThreshold time.Duration) *Analyzer {
	if gap <= 0 {
		gap = DefaultSessionGap
	}
	r := obs.NewRegistry()
	return &Analyzer{
		sessionGap:    gap,
		slowThreshold: slowThreshold,
		reg:           r,
		latency: r.NewHistogram("history_latency_seconds",
			"Statement runtime distribution.", nil),
		lengths: r.NewHistogram("history_query_length_chars",
			"Query text length distribution.", DefLengthBuckets),
		templateLat: map[string]*obs.Histogram{},
		operators:   map[string]int{},
		tables:      map[string]*tableAgg{},
		templates:   map[string]int{},
		users:       map[string]*userAgg{},
	}
}

// maxTemplateLat bounds the per-template latency histogram map.
const maxTemplateLat = 1024

// Fold incorporates one record.
func (a *Analyzer) Fold(rec *Record) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.queries++
	if rec.Failed() {
		a.failed++
	}
	hit := rec.Cache == CacheHit
	if hit {
		a.cacheHits++
	}
	a.rows += int64(rec.RowsReturned)
	rt := rec.Runtime()
	a.runtime += rt
	a.latency.Observe(rt.Seconds())
	a.lengths.Observe(float64(len(rec.SQL)))
	if a.first.IsZero() || rec.Time.Before(a.first) {
		a.first = rec.Time
	}
	if rec.Time.After(a.last) {
		a.last = rec.Time
	}
	for _, ds := range rec.Datasets {
		a.tableAgg(ds).touches++
	}
	// A cache hit carries the cached plan metadata, but nothing executed:
	// folding its operator and column counts again would double-count the
	// work the filling run already reported. The hit itself still counts
	// (digest, latency, rows) so per-template frequencies stay complete.
	if rec.Meta != nil && !hit {
		for op, n := range rec.Meta.OperatorCounts {
			a.operators[op] += n
		}
		for tbl, cols := range rec.Meta.Columns {
			// The plan's column map is keyed by the table name as written
			// in the query; fold it onto the matching dataset full name so
			// the census counts each dataset once.
			t := a.tableAgg(qualifyTable(tbl, rec.Datasets))
			for _, col := range cols {
				t.columns[col]++
			}
		}
	}
	if rec.Digest != "" {
		a.templates[rec.Digest]++
		h := a.templateLat[rec.Digest]
		if h == nil && len(a.templateLat) < maxTemplateLat {
			h = a.reg.NewHistogram("history_template_latency_"+rec.Digest,
				"Runtime distribution of one plan template.", nil)
			a.templateLat[rec.Digest] = h
		}
		if h != nil {
			h.Observe(rt.Seconds())
		}
	}
	a.foldUser(rec, rt)
	if a.slowThreshold > 0 && rt >= a.slowThreshold {
		a.slow = append(a.slow, SlowInfo{
			Time:          rec.Time,
			User:          rec.User,
			SQL:           truncateSQL(rec.SQL, 400),
			Digest:        rec.Digest,
			TraceID:       rec.TraceID,
			RuntimeMillis: rec.RuntimeMillis,
			RowsReturned:  rec.RowsReturned,
			Err:           rec.Err,
		})
		if len(a.slow) > maxSlowKept {
			a.slow = a.slow[len(a.slow)-maxSlowKept:]
		}
	}
}

// qualifyTable maps a bare table reference onto the dataset full name
// that ends with it ("water" → "alice.water"); names matching no dataset
// (CTEs, aliases the plan kept) pass through unchanged.
func qualifyTable(name string, datasets []string) string {
	for _, full := range datasets {
		if full == name {
			return full
		}
		if len(full) > len(name) && full[len(full)-len(name)-1] == '.' &&
			full[len(full)-len(name):] == name {
			return full
		}
	}
	return name
}

// tableAgg returns (creating if needed) the aggregate for one table; must
// be called with the lock held. The touch count follows direct references
// (Datasets) only — column attributions land on the same aggregate but do
// not inflate it.
func (a *Analyzer) tableAgg(name string) *tableAgg {
	t := a.tables[name]
	if t == nil {
		t = &tableAgg{columns: map[string]int{}}
		a.tables[name] = t
	}
	return t
}

func (a *Analyzer) foldUser(rec *Record, rt time.Duration) {
	u := a.users[rec.User]
	if u == nil {
		u = &userAgg{distinct: map[uint64]struct{}{}, first: rec.Time}
		a.users[rec.User] = u
	}
	u.queries++
	if rec.Failed() {
		u.failed++
	}
	u.runtime += rt
	u.distinct[normalizedHash(rec.SQL)] = struct{}{}
	if rec.Time.After(u.lastSeen) {
		u.lastSeen = rec.Time
	}
	// Session accounting: an idle gap closes the open session.
	if u.curQueries > 0 && rec.Time.Sub(u.curEnd) > a.sessionGap {
		a.closeSessionLocked(rec.User, u)
	}
	if u.curQueries == 0 {
		u.curStart = rec.Time
	}
	if rec.Time.After(u.curEnd) {
		u.curEnd = rec.Time
	}
	u.curQueries++
}

// closeSessionLocked finalizes a user's open session.
func (a *Analyzer) closeSessionLocked(user string, u *userAgg) {
	u.sessions++
	a.sessionsClosed++
	a.closedSessions = append(a.closedSessions, SessionInfo{
		User:       user,
		Start:      u.curStart,
		End:        u.curEnd,
		Queries:    u.curQueries,
		DurationMs: float64(u.curEnd.Sub(u.curStart).Nanoseconds()) / 1e6,
	})
	if len(a.closedSessions) > maxClosedSessions {
		a.closedSessions = a.closedSessions[len(a.closedSessions)-maxClosedSessions:]
	}
	u.curQueries = 0
}

// normalizedHash hashes whitespace-normalized, case-folded SQL text — the
// paper's weakest query-equivalence metric (exact string match, §6.2),
// used for the distinct-queries-per-user distribution. It streams the
// normalization through the hash byte by byte: this runs on every
// statement, and building the intermediate strings costs more than the
// statement's own fold.
func normalizedHash(sql string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	pendingSpace := false
	started := false
	for i := 0; i < len(sql); i++ {
		c := sql[i]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f' {
			pendingSpace = started
			continue
		}
		if pendingSpace {
			h = (h ^ ' ') * prime64
			pendingSpace = false
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		h = (h ^ uint64(c)) * prime64
		started = true
	}
	return h
}

// ---------------------------------------------------------------- views

// Summary is the headline aggregate served at /api/insights/summary.
type Summary struct {
	Since         time.Time `json:"since"`
	LastStatement time.Time `json:"lastStatement"`
	Queries       int       `json:"queries"`
	Failed        int       `json:"failed"`
	// CacheHits counts statements answered from the result cache (their
	// operator stats are excluded from the operator aggregates).
	CacheHits    int   `json:"cacheHits"`
	RowsReturned int64 `json:"rowsReturned"`
	Users        int   `json:"users"`
	// DistinctTemplates counts distinct plan digests — the paper's
	// strongest equivalence metric, live (§6.2).
	DistinctTemplates int `json:"distinctTemplates"`
	// DistinctOperators counts distinct physical operators seen.
	DistinctOperators int     `json:"distinctOperators"`
	MeanRuntimeMs     float64 `json:"meanRuntimeMs"`
	P50Ms             float64 `json:"p50Ms"`
	P90Ms             float64 `json:"p90Ms"`
	P99Ms             float64 `json:"p99Ms"`
	MeanLengthChars   float64 `json:"meanLengthChars"`
	Sessions          int     `json:"sessions"` // closed + open
	SlowStatements    int     `json:"slowStatements"`
}

// Summarize renders the headline aggregate.
func (a *Analyzer) Summarize() Summary {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := Summary{
		Since:             a.first,
		LastStatement:     a.last,
		Queries:           a.queries,
		Failed:            a.failed,
		CacheHits:         a.cacheHits,
		RowsReturned:      a.rows,
		Users:             len(a.users),
		DistinctTemplates: len(a.templates),
		DistinctOperators: len(a.operators),
		Sessions:          a.sessionsClosed,
		SlowStatements:    len(a.slow),
	}
	if a.queries > 0 {
		s.MeanRuntimeMs = float64(a.runtime.Nanoseconds()) / 1e6 / float64(a.queries)
		s.MeanLengthChars = a.lengths.Sum() / float64(a.queries)
	}
	s.P50Ms = a.latency.Quantile(0.50) * 1000
	s.P90Ms = a.latency.Quantile(0.90) * 1000
	s.P99Ms = a.latency.Quantile(0.99) * 1000
	for _, u := range a.users {
		if u.curQueries > 0 {
			s.Sessions++ // open session
		}
	}
	return s
}

// OperatorFreq is one row of the live operator-frequency mix (Fig 9).
type OperatorFreq struct {
	Operator string  `json:"operator"`
	Count    int     `json:"count"`
	Fraction float64 `json:"fraction"`
}

// OperatorMix returns the operator-frequency mix, most frequent first.
func (a *Analyzer) OperatorMix() []OperatorFreq {
	a.mu.Lock()
	defer a.mu.Unlock()
	total := 0
	for _, n := range a.operators {
		total += n
	}
	out := make([]OperatorFreq, 0, len(a.operators))
	for op, n := range a.operators {
		f := OperatorFreq{Operator: op, Count: n}
		if total > 0 {
			f.Fraction = float64(n) / float64(total)
		}
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Operator < out[j].Operator
	})
	return out
}

// TableTouch is one row of the live table/column touch census (Fig 4).
type TableTouch struct {
	Table   string         `json:"table"`
	Touches int            `json:"touches"`
	Columns map[string]int `json:"columns,omitempty"`
}

// TableTouches returns per-table touch counts, most touched first.
func (a *Analyzer) TableTouches() []TableTouch {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]TableTouch, 0, len(a.tables))
	for name, t := range a.tables {
		cols := make(map[string]int, len(t.columns))
		for c, n := range t.columns {
			cols[c] = n
		}
		out = append(out, TableTouch{Table: name, Touches: t.touches, Columns: cols})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Touches != out[j].Touches {
			return out[i].Touches > out[j].Touches
		}
		return out[i].Table < out[j].Table
	})
	return out
}

// UserInsight is one row of the live per-user census: query volume,
// distinct statements (§6.2's distinct-queries-per-user), and sessions.
type UserInsight struct {
	User            string    `json:"user"`
	Queries         int       `json:"queries"`
	Failed          int       `json:"failed"`
	DistinctQueries int       `json:"distinctQueries"`
	Sessions        int       `json:"sessions"` // closed + open
	MeanRuntimeMs   float64   `json:"meanRuntimeMs"`
	FirstSeen       time.Time `json:"firstSeen"`
	LastSeen        time.Time `json:"lastSeen"`
}

// UserInsights returns the per-user census, most active first.
func (a *Analyzer) UserInsights() []UserInsight {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]UserInsight, 0, len(a.users))
	for name, u := range a.users {
		ui := UserInsight{
			User:            name,
			Queries:         u.queries,
			Failed:          u.failed,
			DistinctQueries: len(u.distinct),
			Sessions:        u.sessions,
			FirstSeen:       u.first,
			LastSeen:        u.lastSeen,
		}
		if u.curQueries > 0 {
			ui.Sessions++
		}
		if u.queries > 0 {
			ui.MeanRuntimeMs = float64(u.runtime.Nanoseconds()) / 1e6 / float64(u.queries)
		}
		out = append(out, ui)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Queries != out[j].Queries {
			return out[i].Queries > out[j].Queries
		}
		return out[i].User < out[j].User
	})
	return out
}

// SessionInfo is one user session (closed or still open).
type SessionInfo struct {
	User       string    `json:"user"`
	Start      time.Time `json:"start"`
	End        time.Time `json:"end"`
	Queries    int       `json:"queries"`
	DurationMs float64   `json:"durationMs"`
	Open       bool      `json:"open,omitempty"`
}

// Sessions returns recently closed sessions plus every open one, in start
// order.
func (a *Analyzer) Sessions() []SessionInfo {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := append([]SessionInfo(nil), a.closedSessions...)
	for name, u := range a.users {
		if u.curQueries == 0 {
			continue
		}
		out = append(out, SessionInfo{
			User:       name,
			Start:      u.curStart,
			End:        u.curEnd,
			Queries:    u.curQueries,
			DurationMs: float64(u.curEnd.Sub(u.curStart).Nanoseconds()) / 1e6,
			Open:       true,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].User < out[j].User
	})
	return out
}

// SlowInfo is one slow statement, as kept for /api/insights/slow.
type SlowInfo struct {
	Time          time.Time `json:"time"`
	User          string    `json:"user"`
	SQL           string    `json:"sql"`
	Digest        string    `json:"digest,omitempty"`
	TraceID       string    `json:"traceId,omitempty"`
	RuntimeMillis float64   `json:"runtimeMs"`
	RowsReturned  int       `json:"rowsReturned"`
	Err           string    `json:"error,omitempty"`
}

// SlowStatements returns the retained slow statements, newest first.
func (a *Analyzer) SlowStatements() []SlowInfo {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]SlowInfo, len(a.slow))
	for i := range a.slow {
		out[len(a.slow)-1-i] = a.slow[i]
	}
	return out
}

// LengthHistogram exposes the query-length distribution (bounds in
// characters, per-bucket counts, final bucket +Inf).
func (a *Analyzer) LengthHistogram() (bounds []float64, counts []int64) {
	return a.lengths.Snapshot()
}

// LatencyHistogram exposes the runtime distribution (bounds in seconds,
// per-bucket counts, final bucket +Inf).
func (a *Analyzer) LatencyHistogram() (bounds []float64, counts []int64) {
	return a.latency.Snapshot()
}

// TemplateP99 is one plan template's tail latency, for the overload view.
type TemplateP99 struct {
	Digest string  `json:"digest"`
	Count  int64   `json:"count"`
	P99Ms  float64 `json:"p99Ms"`
}

// TemplateP99s returns the tracked templates' p99 runtimes, slowest first
// (ties broken by digest for determinism).
func (a *Analyzer) TemplateP99s() []TemplateP99 {
	a.mu.Lock()
	hists := make(map[string]*obs.Histogram, len(a.templateLat))
	for d, h := range a.templateLat {
		hists[d] = h
	}
	a.mu.Unlock()
	out := make([]TemplateP99, 0, len(hists))
	for d, h := range hists {
		out = append(out, TemplateP99{Digest: d, Count: h.Count(), P99Ms: h.Quantile(0.99) * 1000})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].P99Ms != out[j].P99Ms {
			return out[i].P99Ms > out[j].P99Ms
		}
		return out[i].Digest < out[j].Digest
	})
	return out
}

// WorstTemplateP99 returns the largest per-template p99 runtime in seconds
// (0 when nothing is tracked) — the sqlshare_overload_template_p99_seconds
// gauge value.
func (a *Analyzer) WorstTemplateP99() float64 {
	a.mu.Lock()
	hists := make([]*obs.Histogram, 0, len(a.templateLat))
	for _, h := range a.templateLat {
		hists = append(hists, h)
	}
	a.mu.Unlock()
	var worst float64
	for _, h := range hists {
		if q := h.Quantile(0.99); q > worst {
			worst = q
		}
	}
	return worst
}

// Replay folds a recorded history (e.g. read back from the JSONL log with
// ReadLog) into a fresh analyzer — the offline path of cmd/workload-report.
func Replay(records []*Record, gap, slowThreshold time.Duration) *Analyzer {
	a := NewAnalyzer(gap, slowThreshold)
	for _, rec := range records {
		a.Fold(rec)
	}
	return a
}
