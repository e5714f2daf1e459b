package plan

import "sync"

// DefaultCacheEntries bounds a cache created with NewCache(0). Query pools
// of a discriminative search hold a few hundred variants; one slot per
// variant per database leaves generous headroom.
const DefaultCacheEntries = 4096

// CacheKey identifies one cached plan: the catalog identity (comparable —
// the engines use the *Database pointer), the catalog's schema/data version
// at build time, and the normalized SQL text. A schema or data mutation
// bumps the version, so stale plans are never served; they simply stop
// being referenced and age out through the size cap.
type CacheKey struct {
	Catalog any
	Version uint64
	SQL     string
}

// Key builds a cache key, normalizing the SQL text.
func Key(catalog any, version uint64, sql string) CacheKey {
	return CacheKey{Catalog: catalog, Version: version, SQL: Normalize(sql)}
}

// Cache is a concurrency-safe plan cache. Build failures (parse errors,
// unsupported constructs) are cached too: a failing variant re-measured by
// the scheduler should not re-parse either.
type Cache struct {
	mu      sync.Mutex
	entries map[CacheKey]*cacheEntry
	cap     int
	hits    uint64
	misses  uint64
}

// cacheEntry is installed as a placeholder before its build runs: ready
// closes once p/err are set, so concurrent lookups of one cold key wait for
// the single build instead of planning the statement again.
type cacheEntry struct {
	p     *Plan
	err   error
	ready chan struct{}
}

// NewCache creates a plan cache holding at most capEntries plans (0 means
// DefaultCacheEntries).
func NewCache(capEntries int) *Cache {
	if capEntries <= 0 {
		capEntries = DefaultCacheEntries
	}
	return &Cache{entries: map[CacheKey]*cacheEntry{}, cap: capEntries}
}

// GetOrBuild returns the cached plan for the key, building and inserting it
// on a miss. Each key is built exactly once: the first miss installs a
// placeholder and builds outside the lock; concurrent lookups of the same
// key count as hits, block until that build finishes and share its result.
func (c *Cache) GetOrBuild(key CacheKey, build func() (*Plan, error)) (*Plan, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.mu.Unlock()
		<-e.ready
		return e.p, e.err
	}
	c.misses++
	// A miss with a newer catalog version means every entry of the same
	// catalog at an older version is permanently unreachable (keys embed the
	// version); drop them now instead of letting them pin the catalog's data
	// until cap-driven eviction gets around to it.
	//lint:ordered order-insensitive purge by key predicate; only cache residency is affected
	for k := range c.entries {
		if k.Catalog == key.Catalog && k.Version < key.Version {
			delete(c.entries, k)
		}
	}
	if len(c.entries) >= c.cap {
		// Coarse eviction: drop an arbitrary entry per overflowing insert.
		// The cache exists to absorb the repetition discipline (the same few
		// hundred variants measured over and over), not to be an LRU. An
		// evicted in-flight placeholder still serves the waiters holding it.
		//lint:ordered eviction victim is documented as arbitrary; plans are rebuilt identically on re-miss
		for k := range c.entries {
			delete(c.entries, k)
			break
		}
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	defer close(e.ready)
	e.p, e.err = build()
	return e.p, e.err
}

// DropCatalog removes every entry of the given catalog, releasing the
// catalog (and the data reachable through it) from the cache's keys. Call
// it when retiring a database from a long-lived registry or project; a
// dropped catalog never misses again, so the stale-version purge in
// GetOrBuild alone would keep its last-version entries alive until cap
// eviction.
func (c *Cache) DropCatalog(catalog any) {
	c.mu.Lock()
	//lint:ordered order-insensitive purge by key predicate; only cache residency is affected
	for k := range c.entries {
		if k.Catalog == catalog {
			delete(c.entries, k)
		}
	}
	c.mu.Unlock()
}

// Stats returns how many lookups hit and missed since the cache was created.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of cached plans.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
