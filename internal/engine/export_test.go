package engine

import "sqalpel/internal/plan"

// SetJoinGuard lowers the join-size guard of every execution to n until the
// returned restore runs, so the budget tests reach the guard on small data.
func SetJoinGuard(n int) (restore func()) {
	joinGuard = n
	return func() { joinGuard = plan.JoinGuard }
}
