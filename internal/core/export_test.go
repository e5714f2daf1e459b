package core

import (
	"sqalpel/internal/analytics"
	"sqalpel/internal/engine"
	"sqalpel/internal/grammar"
)

// NewProjectFromGrammar builds a project from a hand-written grammar, the
// other entry point the paper names; the tests build projects from
// hand-written grammars with it.
func NewProjectFromGrammar(name, grammarText string, opts ProjectOptions) (*Project, error) {
	opts = opts.withDefaults()
	g, err := grammar.Parse(grammarText)
	if err != nil {
		return nil, err
	}
	return newProject(name, "", g, opts)
}

// AddRegistryTargets registers every built-in engine (six engines in
// four execution paradigms) against the database and returns the target
// names in registry order.
func (p *Project) AddRegistryTargets(db *engine.Database) []string {
	reg := engine.NewRegistry()
	keys := reg.Keys()
	for _, key := range keys {
		p.AddEngineTarget(key, reg.Get(key), db)
	}
	return keys
}

// History returns the experiment-history series for one target (Figure 7).
func (p *Project) History(target string) []analytics.HistoryPoint {
	return analytics.History(p.Runs(), target)
}

// Speedup compares two targets query by query (Figure 3).
func (p *Project) Speedup(baseTarget, otherTarget string) analytics.SpeedupSummary {
	return analytics.Speedup(p.Runs(), baseTarget, otherTarget)
}

// Diff builds the query-differential page for two pool entries (Figure 4).
func (p *Project) Diff(queryA, queryB int) (analytics.Differential, error) {
	return analytics.Diff(p.Runs(), queryA, queryB)
}

// PlanCacheStats returns how many logical-plan lookups by the project's
// engine targets hit and missed the shared plan cache.
func (p *Project) PlanCacheStats() (hits, misses uint64) {
	return p.plans.Stats()
}
