package discriminative

import (
	"context"

	"sqalpel/internal/pool"
	"sqalpel/internal/sched"
)

// MeasureEntry measures one pool entry on every target (if not already
// measured) and returns the outcome.
func (s *Search) MeasureEntry(e *pool.Entry) *Outcome {
	if o, ok := s.outcomes[e.ID]; ok {
		return o
	}
	return s.measureEntries(context.Background(), []*pool.Entry{e})[0]
}

// Scheduler exposes the measurement scheduler (for cache statistics).
func (s *Search) Scheduler() *sched.Scheduler { return s.sched }

// Targets returns the target names in deterministic order.
func (s *Search) Targets() []string { return append([]string(nil), s.names...) }
