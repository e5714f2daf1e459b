package plan

import (
	"errors"
	"sync"
)

// DefaultCacheEntries bounds a cache created with NewCache(0). It is sized
// from measured LRU reuse distances (the number of other plans touched
// between two uses of one; sqalpelbench, 20 s windows, EXPERIMENTS.md "Plan
// cache size"), not from the pool size: measurement is variant-major — all
// runs of one variant on every engine, then the next — so one plan per
// database is live at a time and 90 % of a search's hits have distance 0;
// the rest re-meet a variant of an earlier round (61 plans a round) at
// distance 61–2,580, and 1,024 slots keep 98.5 % of all hits (512: 96.4 %,
// 2,048: 99.9 %). tpch_power cycles through 44 plans (distance <= 43),
// task_drain through ≈ 32 a cycle (p99 31, max 623). A retained plan costs
// ≈ 10 KB of heap, ≈ 23 KB of resident memory once the collector's headroom
// is counted, so the cap bounds a long search at ≈ 24 MB where 4,096 slots
// let it reach ≈ 94 MB.
const DefaultCacheEntries = 1024

// CacheKey identifies one cached plan: the catalog identity (comparable —
// the engines use the *Database pointer), the catalog's schema/data version
// at build time, and the SQL text as written. A schema or data mutation
// bumps the version, so stale plans are never served; they simply stop
// being referenced: the first lookup at the newer version purges them.
type CacheKey struct {
	Catalog any
	Version uint64
	SQL     string
}

// Key builds a cache key from the text as written, not its Normalize form:
// a cached build failure carries positions in the text it was built from.
func Key(catalog any, version uint64, sql string) CacheKey {
	return CacheKey{Catalog: catalog, Version: version, SQL: sql}
}

// Cache is a concurrency-safe plan cache with a size cap and least-recently-
// used eviction. Build failures (parse errors, unsupported constructs) are
// cached too: a failing variant re-measured by the scheduler should not
// re-parse either.
type Cache struct {
	mu      sync.Mutex
	entries map[CacheKey]*cacheEntry
	// lru is the sentinel of the recency ring: lru.next is the most recently
	// used entry, lru.prev the least.
	lru      cacheEntry
	catalogs map[any]*catalogState
	cap      int
	hits     uint64
	misses   uint64
}

// cacheEntry is installed as a placeholder before its build runs: ready
// closes once p/err are set, so concurrent lookups of one cold key wait for
// the single build instead of planning the statement again.
type cacheEntry struct {
	key        CacheKey
	p          *Plan
	err        error
	ready      chan struct{}
	prev, next *cacheEntry
}

// catalogState is what the cache remembers per catalog with entries in it:
// the newest version a lookup carried (so that only a lookup with a newer
// one scans for stale entries) and the entry count (so that the record, and
// with it the reference to the catalog, goes when the last entry does).
type catalogState struct {
	newest  uint64
	entries int
}

// NewCache creates a plan cache holding at most capEntries plans (0 means
// DefaultCacheEntries).
func NewCache(capEntries int) *Cache {
	if capEntries <= 0 {
		capEntries = DefaultCacheEntries
	}
	c := &Cache{entries: map[CacheKey]*cacheEntry{}, catalogs: map[any]*catalogState{}, cap: capEntries}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// GetOrBuild returns the cached plan for the key, building and inserting it
// on a miss. Each key is built exactly once: the first miss installs a
// placeholder and builds outside the lock; concurrent lookups of the same
// key count as hits, block until that build finishes and share its result.
// A hit makes the entry the most recently used one; an insert into a full
// cache evicts the least recently used entry whose build has finished.
func (c *Cache) GetOrBuild(key CacheKey, build func() (*Plan, error)) (*Plan, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.unlink(e)
		c.pushFront(e)
		c.mu.Unlock()
		<-e.ready
		return e.p, e.err
	}
	c.misses++
	// Count the entry inserted below first: the catalog's record then
	// outlives whatever the purge and the eviction remove.
	cs := c.catalogs[key.Catalog]
	if cs == nil {
		cs = &catalogState{newest: key.Version}
		c.catalogs[key.Catalog] = cs
	}
	cs.entries++
	// The first lookup with a newer catalog version makes every entry of the
	// same catalog at an older version permanently unreachable (keys embed
	// the version); drop them now instead of letting them pin the catalog's
	// data until they reach the cold end. Later misses at that version have
	// nothing left to purge and do not scan.
	if key.Version > cs.newest {
		cs.newest = key.Version
		c.removeWhere(func(k CacheKey) bool { return k.Catalog == key.Catalog && k.Version < key.Version })
	}
	// Evict from the cold end. An in-flight placeholder is never the victim:
	// dropping it would let a second lookup of its key start a second build.
	for v := c.lru.prev; len(c.entries) >= c.cap && v != &c.lru; {
		prev := v.prev
		select {
		case <-v.ready:
			c.remove(v)
		default:
		}
		v = prev
	}
	e := &cacheEntry{key: key, ready: make(chan struct{}), err: errBuildPanicked}
	c.entries[key] = e
	c.pushFront(e)
	c.mu.Unlock()

	defer func() {
		// A build that panicked leaves no entry behind: its waiters fail and
		// the next lookup of the key builds again.
		if e.err == errBuildPanicked {
			c.mu.Lock()
			if c.entries[key] == e {
				c.remove(e)
			}
			c.mu.Unlock()
		}
		close(e.ready)
	}()
	e.p, e.err = build()
	return e.p, e.err
}

// errBuildPanicked is what the waiters of a panicking build receive.
var errBuildPanicked = errors.New("the plan build of this statement panicked")

func (c *Cache) pushFront(e *cacheEntry) {
	e.prev, e.next = &c.lru, c.lru.next
	e.prev.next, e.next.prev = e, e
}

func (c *Cache) unlink(e *cacheEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
}

// remove drops an entry; waiters already holding it are still served.
func (c *Cache) remove(e *cacheEntry) {
	c.unlink(e)
	delete(c.entries, e.key)
	if cs := c.catalogs[e.key.Catalog]; cs.entries == 1 {
		delete(c.catalogs, e.key.Catalog)
	} else {
		cs.entries--
	}
}

func (c *Cache) removeWhere(match func(CacheKey) bool) {
	for e := c.lru.next; e != &c.lru; {
		next := e.next
		if match(e.key) {
			c.remove(e)
		}
		e = next
	}
}

// Stats returns how many lookups hit and missed since the cache was created.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
