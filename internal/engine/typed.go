package engine

import (
	"fmt"
	"strings"
	"sync"

	"sqalpel/internal/vexec"
)

// This file is the column-import shim of the typed engines:
// engine.Database stores boxed []Value columns, which are decoded into the
// typed vectors internal/vexec executes on once per table data version and
// cached.

// typedTableEntry pins the typed decoding of one table to the data version
// it was built from; any mutation (append or in-place update) bumps the
// version and invalidates the entry. The owning database is recorded so a
// reloaded table (Database.AddTable with a fresh *Table under the same
// name) evicts only its own predecessors, never a same-named table of
// another database served by the same engine. Entries are installed as
// placeholders before the decode runs: ready closes once vt/err are set,
// so concurrent importers of one version wait for the single build instead
// of decoding (and dictionary-encoding) the columns again.
type typedTableEntry struct {
	version uint64
	vt      *vexec.Table
	db      *Database
	ready   chan struct{}
	err     error
}

// typedCache holds the typed decodings of boxed tables. A Registry hands
// every typed engine it registers one shared instance, like the plan
// cache, so a table version is decoded and dictionary-encoded once per
// registry; an engine constructed on its own starts with a private one.
type typedCache struct {
	mu     sync.Mutex
	cache  map[*Table]*typedTableEntry
	builds uint64 // decode passes actually run, for the build-once tests
}

// newTypedCache returns an empty typed-table cache.
func newTypedCache() *typedCache {
	return &typedCache{cache: map[*Table]*typedTableEntry{}}
}

// typedCatalog adapts an engine.Database to the typed-table catalog vexec
// consumes, decoding boxed columns into typed vectors through the cache.
type typedCatalog struct {
	cache *typedCache
	db    *Database
}

// VTable returns the typed form of the named table.
func (c *typedCatalog) VTable(name string) (*vexec.Table, error) {
	t := c.db.Table(name)
	if t == nil {
		return nil, fmt.Errorf("unknown table %q", name)
	}
	return c.cache.typedTable(c.db, t)
}

// typedTable converts a boxed table into typed vectors, caching the result
// keyed by the table's data version — the same invalidation hook the plan
// cache uses — so mutating or reloading a table can never serve stale typed
// columns. Each version is decoded exactly once: the first caller installs
// a placeholder entry and builds outside the lock; concurrent callers of
// the same version block on the entry's ready channel and share the result.
func (tc *typedCache) typedTable(db *Database, t *Table) (*vexec.Table, error) {
	version := t.Version()
	tc.mu.Lock()
	if entry, ok := tc.cache[t]; ok && entry.version == version {
		tc.mu.Unlock()
		<-entry.ready
		return entry.vt, entry.err
	}
	entry := &typedTableEntry{version: version, db: db, ready: make(chan struct{})}
	// Drop superseded entries so a table reloaded via Database.AddTable (a
	// fresh *Table under the same name in the same database) cannot pin its
	// predecessors' typed copies forever; the size cap bounds pathological
	// churn on top. Evicting an in-flight placeholder is harmless: its
	// waiters hold the entry pointer and still receive the build's result.
	for old, oe := range tc.cache {
		if old != t && oe.db == db && strings.EqualFold(old.Name, t.Name) {
			delete(tc.cache, old)
		}
	}
	for old := range tc.cache {
		if len(tc.cache) < maxTypedTables {
			break
		}
		if old == t {
			continue
		}
		delete(tc.cache, old)
	}
	tc.cache[t] = entry
	tc.builds++
	tc.mu.Unlock()

	// If buildTypedTable panics, its waiters receive this error.
	var vt *vexec.Table
	err := fmt.Errorf("the typed import of table %s panicked", t.Name)
	defer func() {
		tc.mu.Lock()
		// Leave no failed entry behind: the next caller retries the build.
		if err != nil && tc.cache[t] == entry {
			delete(tc.cache, t)
		}
		entry.vt, entry.err = vt, err
		tc.mu.Unlock()
		close(entry.ready)
	}()
	vt, err = buildTypedTable(t)
	return vt, err
}

// buildTypedTable runs the full typed import of one boxed table: column
// decode, dictionary encoding and zone-map construction (both inside
// vexec.NewTable).
func buildTypedTable(t *Table) (*vexec.Table, error) {
	cols := make([]vexec.TableColumn, len(t.Columns))
	for ci, col := range t.Columns {
		// vexec's value builder decodes boxed storage with the executor's own
		// kind promotion (incl. the per-row int/float duality a float column
		// may carry); all-NULL columns become KindNull vectors, and columns
		// mixing incompatible kinds report ErrUnsupported, routing such
		// databases to the interpreter.
		vec, err := vexec.FromValues(t.ColumnValues(ci))
		if err != nil {
			return nil, fmt.Errorf("%w: table %s column %s: %v", vexec.ErrUnsupported, t.Name, col.Name, err)
		}
		cols[ci] = vexec.TableColumn{Name: col.Name, Vec: vec}
	}
	return vexec.NewTable(t.Name, cols...), nil
}

// maxTypedTables bounds the typed-column import cache; workloads hold at
// most a dozen or so tables, so the cap only matters under churn.
const maxTypedTables = 64
