package catalog

import "strings"

// DBMS returns the entry with the given key, if present.
func (c *Catalog) DBMS(key string) (DBMS, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, ok := c.dbms[strings.ToLower(key)]
	return d, ok
}

// Platform returns the entry with the given key, if present.
func (c *Catalog) Platform(key string) (Platform, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	p, ok := c.platforms[strings.ToLower(key)]
	return p, ok
}

// Restore replaces the catalog contents with the given entries.
func (c *Catalog) Restore(dbms []DBMS, platforms []Platform) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dbms = map[string]DBMS{}
	c.platforms = map[string]Platform{}
	for _, d := range dbms {
		c.dbms[d.Key()] = d
	}
	for _, p := range platforms {
		c.platforms[p.Key()] = p
	}
}
