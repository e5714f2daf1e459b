// Package catalog implements the two global catalogs of the sqalpel
// platform: the DBMS catalog describing every database system considered in
// experiments (product, version, dialect, configuration knobs) and the
// hardware platform catalog describing the machines experiments ran on. Both
// can be extended freely by registered users, exactly like the paper's
// top-menu catalogs.
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// DBMS describes one database system entry of the global DBMS catalog.
type DBMS struct {
	// Name is the product name, e.g. "columba" or "MonetDB".
	Name string `json:"name"`
	// Version identifies the release.
	Version string `json:"version"`
	// Vendor is the producing organisation.
	Vendor string `json:"vendor"`
	// Dialect is the SQL dialect tag used to pick dialect-specific grammar
	// literals.
	Dialect string `json:"dialect"`
	// Description is free text shown on the catalog page.
	Description string `json:"description"`
	// Knobs documents the configuration parameters relevant for performance
	// interpretation (buffer sizes, parallelism, compression, ...); the
	// paper stresses that reporting them is essential for meaningful
	// experiments.
	Knobs map[string]string `json:"knobs,omitempty"`
}

// Key returns the canonical catalog key ("name-version", lower case).
func (d DBMS) Key() string {
	return strings.ToLower(d.Name) + "-" + d.Version
}

// Platform describes one hardware platform entry.
type Platform struct {
	// Name is the short host identifier, e.g. "xeon-e5" or "raspberry-pi-4".
	Name string `json:"name"`
	// CPU describes the processor.
	CPU string `json:"cpu"`
	// Cores is the number of hardware threads.
	Cores int `json:"cores"`
	// MemoryGB is the installed memory in gigabytes.
	MemoryGB int `json:"memory_gb"`
	// Description is free text (storage, OS, special configuration).
	Description string `json:"description"`
}

// Key returns the canonical catalog key.
func (p Platform) Key() string { return strings.ToLower(p.Name) }

// Catalog holds both global catalogs; it is safe for concurrent use.
type Catalog struct {
	mu        sync.RWMutex
	dbms      map[string]DBMS
	platforms map[string]Platform
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{dbms: map[string]DBMS{}, platforms: map[string]Platform{}}
}

// Bootstrap returns a catalog pre-populated with the built-in engines and
// the platforms the demo mentions (a Raspberry Pi class machine up to a
// large Xeon server).
func Bootstrap() *Catalog {
	c := New()
	c.AddDBMS(DBMS{
		Name: "tuplestore", Version: "1.0", Vendor: "sqalpel", Dialect: "tuplestore",
		Description: "Tuple-at-a-time row store: full-width scans, short-circuit filters, early LIMIT exit.",
		Knobs:       map[string]string{"execution_model": "tuple-at-a-time", "intermediates": "none"},
	})
	c.AddDBMS(DBMS{
		Name: "columba", Version: "1.0", Vendor: "sqalpel", Dialect: "columba",
		Description: "Column-at-a-time engine with materialised intermediates and overflow-guarding casts.",
		Knobs:       map[string]string{"execution_model": "column-at-a-time", "guard_casts": "on"},
	})
	c.AddDBMS(DBMS{
		Name: "columba", Version: "2.0", Vendor: "sqalpel", Dialect: "columba",
		Description: "Column-at-a-time engine, new release without the overflow-guard widening pass.",
		Knobs:       map[string]string{"execution_model": "column-at-a-time", "guard_casts": "off"},
	})
	c.AddDBMS(DBMS{
		Name: "vektor", Version: "1.0", Vendor: "sqalpel", Dialect: "vektor",
		Description: "Batch-vectorized engine: typed unboxed vectors, selection-vector filters, 1024-row pipelines.",
		Knobs:       map[string]string{"execution_model": "batch-at-a-time", "batch_size": "1024"},
	})
	c.AddDBMS(DBMS{
		Name: "vektor", Version: "2.0", Vendor: "sqalpel", Dialect: "vektor",
		Description: "Batch-vectorized engine, new release with quadrupled 4096-row batches.",
		Knobs:       map[string]string{"execution_model": "batch-at-a-time", "batch_size": "4096"},
	})
	c.AddDBMS(DBMS{
		Name: "fusil", Version: "1.0", Vendor: "sqalpel", Dialect: "fusil",
		Description: "Data-centric compiled engine: per-query closure chains, fused scan+filter pipelines, no batch handoffs.",
		Knobs:       map[string]string{"execution_model": "data-centric compiled", "pipelines": "fused"},
	})
	c.AddPlatform(Platform{Name: "raspberry-pi-4", CPU: "ARM Cortex-A72", Cores: 4, MemoryGB: 4,
		Description: "Small single-board computer used for the low end of the spectrum."})
	c.AddPlatform(Platform{Name: "xeon-e5-4657l", CPU: "Intel Xeon E5-4657L", Cores: 48, MemoryGB: 1024,
		Description: "Large shared-memory server with 1TB RAM used in the demo projects."})
	c.AddPlatform(Platform{Name: "laptop", CPU: "generic x86-64", Cores: 8, MemoryGB: 16,
		Description: "Developer laptop; the default platform for locally contributed results."})
	return c
}

// AddDBMS registers or updates a DBMS entry; name and version are required.
func (c *Catalog) AddDBMS(d DBMS) error {
	if d.Name == "" || d.Version == "" {
		return fmt.Errorf("dbms catalog entries need a name and a version")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dbms[d.Key()] = d
	return nil
}

// AddPlatform registers or updates a platform entry.
func (c *Catalog) AddPlatform(p Platform) error {
	if p.Name == "" {
		return fmt.Errorf("platform catalog entries need a name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.platforms[p.Key()] = p
	return nil
}

// ListDBMS returns all DBMS entries sorted by key.
func (c *Catalog) ListDBMS() []DBMS {
	c.mu.RLock()
	defer c.mu.RUnlock()
	keys := make([]string, 0, len(c.dbms))
	for k := range c.dbms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]DBMS, 0, len(keys))
	for _, k := range keys {
		out = append(out, c.dbms[k])
	}
	return out
}

// ListPlatforms returns all platform entries sorted by key.
func (c *Catalog) ListPlatforms() []Platform {
	c.mu.RLock()
	defer c.mu.RUnlock()
	keys := make([]string, 0, len(c.platforms))
	for k := range c.platforms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Platform, 0, len(keys))
	for _, k := range keys {
		out = append(out, c.platforms[k])
	}
	return out
}

// Snapshot returns copies of both catalogs for JSON serialisation.
func (c *Catalog) Snapshot() (dbms []DBMS, platforms []Platform) {
	return c.ListDBMS(), c.ListPlatforms()
}
