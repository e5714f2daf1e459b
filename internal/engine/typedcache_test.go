package engine

import (
	"fmt"
	"sync"
	"testing"

	"sqalpel/internal/sqlsem"
)

// cacheFixture builds a database with one string-keyed table big enough to
// span several zone blocks.
func cacheFixture(rows int) (*Database, *Table) {
	words := []string{"alpha", "beta", "gamma"}
	tab := NewTable("t",
		Column{Name: "s", Type: TypeString},
		Column{Name: "x", Type: TypeInt},
	)
	for i := 0; i < rows; i++ {
		tab.MustAppendRow(sqlsem.NewString(words[i%len(words)]), sqlsem.NewInt(int64(i)))
	}
	db := NewDatabase("d")
	db.AddTable(tab)
	return db, tab
}

// TestTypedCacheRebuildsEncodingsOnVersionBump pins the invalidation
// contract of the typed import under the new storage encodings: a data
// mutation bumps the table version, and the next import rebuilds the typed
// table — including its string dictionary and zone maps — exactly once.
func TestTypedCacheRebuildsEncodingsOnVersionBump(t *testing.T) {
	db, tab := cacheFixture(2500)
	tc := newTypedCache()

	vt1, err := tc.typedTable(db, tab)
	if err != nil {
		t.Fatal(err)
	}
	if d := vt1.DictFor("s"); d == nil || d.Len() != 3 {
		t.Fatalf("imported dictionary = %v, want 3 entries", d)
	}
	if nb := vt1.NumZoneBlocks(); nb != 3 {
		t.Fatalf("zone blocks = %d, want 3 for 2500 rows", nb)
	}
	if again, _ := tc.typedTable(db, tab); again != vt1 {
		t.Fatal("unchanged version was re-imported")
	}
	if tc.builds != 1 {
		t.Fatalf("builds = %d after two same-version imports, want 1", tc.builds)
	}

	// A mutation invalidates: the rebuilt table must carry the new value in
	// its dictionary and cover the appended row with its zone maps.
	tab.MustAppendRow(sqlsem.NewString("zeta"), sqlsem.NewInt(9999))
	vt2, err := tc.typedTable(db, tab)
	if err != nil {
		t.Fatal(err)
	}
	if vt2 == vt1 {
		t.Fatal("version bump served the stale typed table")
	}
	if d := vt2.DictFor("s"); d == nil || d.Len() != 4 {
		t.Fatalf("rebuilt dictionary = %v, want 4 entries including the appended value", d)
	}
	if _, ok := vt2.DictFor("s").Code("zeta"); !ok {
		t.Fatal("rebuilt dictionary misses the appended value")
	}
	if nb := vt2.NumZoneBlocks(); nb != 3 {
		t.Fatalf("rebuilt zone blocks = %d, want 3 for 2501 rows", nb)
	}
	if tc.builds != 2 {
		t.Fatalf("builds = %d after one invalidation, want 2", tc.builds)
	}
}

// TestTypedCacheConcurrentBuildOnce races many executions of one table
// version against each other, through all three typed engines of one
// registry — which share the registry's typed cache the way they share its
// plan cache: the decode (with its dictionary and zone-map construction)
// must run exactly once per registry, not once per engine, every engine
// must have been handed that one typed table, and a version bump rebuilds
// it once for all of them.
func TestTypedCacheConcurrentBuildOnce(t *testing.T) {
	db, tab := cacheFixture(5000)
	reg := NewRegistry()
	shared := reg.engines["vektor-1.0"].typedTables
	var typed []*specEngine
	for _, key := range reg.Keys() {
		if te := reg.engines[key]; te.typed {
			if te.typedTables != shared {
				t.Fatalf("%s does not share the registry's typed cache", key)
			}
			typed = append(typed, te)
		}
	}
	if len(typed) != 3 {
		t.Fatalf("registry holds %d typed engines, want vektor-1.0, vektor-2.0 and fusil-1.0", len(typed))
	}

	const perEngine = 12
	race := func(want string) {
		t.Helper()
		errs := make(chan error, len(typed)*perEngine)
		var wg sync.WaitGroup
		for _, te := range typed {
			for g := 0; g < perEngine; g++ {
				wg.Add(1)
				go func(te *specEngine) {
					defer wg.Done()
					res, err := te.Execute(db, "SELECT count(*) FROM t WHERE s = 'beta'", ExecOptions{})
					if err == nil && res.Cols[0].At(0).String() != want {
						err = fmt.Errorf("%s-%s counted %s, want %s", te.name, te.version, res.Cols[0].At(0), want)
					}
					errs <- err
				}(te)
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	race("1667")
	if shared.builds != 1 {
		t.Fatalf("builds = %d across %d concurrent executions on %d engines, want 1", shared.builds, len(typed)*perEngine, len(typed))
	}
	vt, err := shared.typedTable(db, tab)
	if err != nil || vt == nil || shared.builds != 1 {
		t.Fatalf("cached lookup: table %v, err %v, builds %d", vt, err, shared.builds)
	}

	tab.MustAppendRow(sqlsem.NewString("beta"), sqlsem.NewInt(-1))
	race("1668")
	if shared.builds != 2 {
		t.Fatalf("builds = %d after one version bump, want 2", shared.builds)
	}
}
