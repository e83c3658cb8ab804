package catalog

import (
	"sync/atomic"

	"sqlshare/internal/history"
	"sqlshare/internal/plan"
)

// historyRef holds the optional continuous-insights recorder. Like the
// metrics bundle, it lives in an atomic pointer so SetHistory is safe
// while queries run.
type historyRef struct {
	h atomic.Pointer[history.History]
}

// SetHistory attaches a query-history recorder; every statement executed
// through the query path is recorded from then on. Passing nil detaches.
func (c *Catalog) SetHistory(h *history.History) { c.history.h.Store(h) }

// History returns the attached recorder, or nil.
func (c *Catalog) History() *history.History { return c.history.h.Load() }

// ensureDigest lazily fills the record's plan-template digest. Extract
// already rendered the template into Meta; hashing it directly avoids a
// second template render per statement. Idempotent; a no-op when the
// record carries no plan artifacts (e.g. a parse failure).
func ensureDigest(rec *history.Record) {
	if rec.Digest != "" {
		return
	}
	if rec.Meta != nil && rec.Meta.Template != "" {
		rec.Digest = plan.DigestTemplate(rec.Meta.Template)
	} else if rec.Plan != nil {
		rec.Digest = rec.Plan.Digest()
	}
}
