package core

import (
	"strings"
	"testing"

	"sqalpel/internal/datagen"
	"sqalpel/internal/engine"
	"sqalpel/internal/plan"
	"sqalpel/internal/workload"
)

// TestGrownPoolRefusals counts the sentences plan.Build refuses among every
// baseline's pool grown by GrowPool(400) with default options: the query
// space's invalid sentences, decided by the plan without execution. Every
// refusal is a projection alias an ORDER BY, GROUP BY or HAVING term still
// names after the morph dropped the item (ROADMAP item 2); the totals drop
// to 0 once the grammar derives such a term only with its item. -v lists
// the baselines.
func TestGrownPoolRefusals(t *testing.T) {
	for _, c := range []struct {
		name         string
		db           *engine.Database
		queries      []workload.Query
		refused, all int
	}{
		{"tpch", datagen.TPCH(datagen.TPCHOptions{ScaleFactor: 0.0005}), workload.TPCH(), 224, 4577},
		{"ssb", datagen.SSB(datagen.SSBOptions{ScaleFactor: 0.0003}), workload.SSB(), 80, 1211},
		{"airtraffic", datagen.Airtraffic(datagen.AirtrafficOptions{Flights: 2000}), workload.Airtraffic(), 62, 669},
	} {
		refused, all := 0, 0
		for _, q := range c.queries {
			p, err := NewProject(q.ID, q.SQL, ProjectOptions{})
			if err != nil {
				t.Fatal(err)
			}
			p.GrowPool(400)
			n := 0
			for _, e := range p.Pool().Entries() {
				_, err := plan.Build(c.db, e.SQL)
				if err == nil {
					continue
				}
				if !strings.HasPrefix(err.Error(), "unknown column ") {
					t.Errorf("%s %s: %s: %v", c.name, q.ID, e.SQL, err)
				}
				n++
			}
			if n > 0 {
				t.Logf("%s %s: %d of %d refused", c.name, q.ID, n, len(p.Pool().Entries()))
			}
			refused, all = refused+n, all+len(p.Pool().Entries())
		}
		if refused != c.refused || all != c.all {
			t.Errorf("%s: %d of %d sentences refused, want %d of %d", c.name, refused, all, c.refused, c.all)
		}
	}
}
