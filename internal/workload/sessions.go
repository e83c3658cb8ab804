package workload

import (
	"sort"
	"time"

	"sqlshare/internal/history"
)

// Session analysis after Singh et al.'s SkyServer traffic report, which
// the paper builds on (§7: "analyzed traffic and sessions by duration,
// usage pattern over time"): consecutive queries by one user separated by
// less than an idle gap form a session.

// Session is one contiguous sitting of a user.
type Session struct {
	User     string
	Start    time.Time
	End      time.Time
	Queries  int
	Datasets int // distinct datasets touched
}

// Duration returns the session's wall-clock span.
func (s Session) Duration() time.Duration { return s.End.Sub(s.Start) }

// ComputeSessions splits the corpus into per-user sessions using the idle
// gap (0 uses history.DefaultSessionGap, the live analyzer's default).
// Sessions are returned in start order.
func ComputeSessions(c *Corpus, gap time.Duration) []Session {
	if gap <= 0 {
		gap = history.DefaultSessionGap
	}
	byUser := map[string][]*sessionEntry{}
	for _, e := range c.Entries {
		byUser[e.User] = append(byUser[e.User], &sessionEntry{t: e.Time, datasets: e.Datasets})
	}
	var out []Session
	for user, entries := range byUser {
		sort.Slice(entries, func(i, j int) bool { return entries[i].t.Before(entries[j].t) })
		var cur *Session
		var seen map[string]bool
		for _, e := range entries {
			if cur == nil || e.t.Sub(cur.End) > gap {
				if cur != nil {
					cur.Datasets = len(seen)
					out = append(out, *cur)
				}
				cur = &Session{User: user, Start: e.t, End: e.t}
				seen = map[string]bool{}
			}
			cur.End = e.t
			cur.Queries++
			for _, ds := range e.datasets {
				seen[ds] = true
			}
		}
		if cur != nil {
			cur.Datasets = len(seen)
			out = append(out, *cur)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].User < out[j].User
	})
	return out
}

type sessionEntry struct {
	t        time.Time
	datasets []string
}

// SessionSummary aggregates the session census.
type SessionSummary struct {
	Sessions          int
	MeanQueries       float64
	MedianDuration    time.Duration
	SingleQueryShare  float64 // fraction of sessions with exactly one query
	MultiDatasetShare float64 // fraction touching more than one dataset
}

// SummarizeSessions computes the session census for a corpus.
func SummarizeSessions(sessions []Session) SessionSummary {
	var sum SessionSummary
	sum.Sessions = len(sessions)
	if sum.Sessions == 0 {
		return sum
	}
	durations := make([]time.Duration, 0, len(sessions))
	queries, single, multi := 0, 0, 0
	for _, s := range sessions {
		queries += s.Queries
		durations = append(durations, s.Duration())
		if s.Queries == 1 {
			single++
		}
		if s.Datasets > 1 {
			multi++
		}
	}
	sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
	sum.MeanQueries = float64(queries) / float64(len(sessions))
	sum.MedianDuration = durations[len(durations)/2]
	sum.SingleQueryShare = float64(single) / float64(len(sessions))
	sum.MultiDatasetShare = float64(multi) / float64(len(sessions))
	return sum
}
