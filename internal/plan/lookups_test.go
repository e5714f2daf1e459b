package plan_test

import (
	"testing"

	"sqalpel/internal/datagen"
	"sqalpel/internal/engine"
	"sqalpel/internal/plan"
)

// TestNameLookupsDoNotScaleWithRows: a column is searched by name when the
// plan is built and never again — an interpreter execution over 10,000 rows
// does exactly the lookups one over 100 rows does (those of plan.Build, on
// the cold execution) and an execution of a cached plan does none. Before
// the plan assigned column slots, every column reference was looked up once
// per row it was evaluated for.
func TestNameLookupsDoNotScaleWithRows(t *testing.T) {
	queries := []string{
		"SELECT id, a + b FROM t WHERE a > 2 AND s LIKE 'a%' ORDER BY id",
		"SELECT k, count(*), sum(a * b), min(s) FROM t GROUP BY k ORDER BY k",
		"SELECT id, label FROM t LEFT JOIN dim ON dk = k AND w > b WHERE g IS NOT NULL ORDER BY id",
		"SELECT id FROM t WHERE EXISTS (SELECT 1 FROM dim WHERE dk = k AND w > a) ORDER BY id",
		"SELECT id FROM t t1 WHERE a > (SELECT count(*) FROM dim WHERE dk < t1.k AND EXISTS (SELECT 1 FROM dim d2 WHERE d2.dk = t1.g)) ORDER BY id",
	}
	lookups := func(rows int, key string) (cold, warm int) {
		db := datagen.Fuzz(datagen.FuzzOptions{Rows: rows, Seed: 3})
		eng := engine.NewRegistry().Get(key)
		run := func() {
			for _, sql := range queries {
				if _, err := eng.Execute(db, sql, engine.ExecOptions{}); err != nil {
					t.Fatalf("%s, %d rows: %s: %v", key, rows, sql, err)
				}
			}
		}
		return plan.CountNameLookups(run), plan.CountNameLookups(run)
	}
	for _, key := range []string{"tuplestore-1.0", "columba-2.0"} {
		coldFew, warmFew := lookups(100, key)
		coldMany, warmMany := lookups(10000, key)
		t.Logf("%s: name lookups per execution of %d queries: %d cold and %d warm at 100 rows, %d cold and %d warm at 10,000", key, len(queries), coldFew, warmFew, coldMany, warmMany)
		if coldFew == 0 || coldFew != coldMany {
			t.Errorf("%s: planning and executing did %d name lookups at 100 rows and %d at 10,000; want the same, non-zero count", key, coldFew, coldMany)
		}
		if warmFew != 0 || warmMany != 0 {
			t.Errorf("%s: executing cached plans did %d name lookups at 100 rows and %d at 10,000; want none", key, warmFew, warmMany)
		}
	}
}
