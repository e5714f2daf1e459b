package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"
	"time"

	"sqalpel/internal/datagen"
	"sqalpel/internal/engine"
	"sqalpel/internal/fuzzdiff"
	"sqalpel/internal/workload"
)

// dataSeed is the fixed seed of every generated database: the data never
// changes with -seed, only the order and the variants of the work do.
const dataSeed = 11

// tpchSizes size tpch_power. One cycle of the schedule is the unit the
// window repeats: it gives each engine a comparable share of the window
// (vektor about 0.05 s a pass, fusil 0.27 s at SF 0.002; columba 0.16 s at
// SF 0.0005) and keeps the mix of operations the same however long it runs.
// The scale factors are small so that a 20 s window holds some thirty
// cycles: the reported numbers are medians over cycles and passes.
type tpchSizes struct {
	sfMain    float64 // vektor-2.0 and fusil-1.0
	sfColumba float64 // columba-2.0, which is two orders slower
	schedule  []string
}

var (
	tpchNormal = tpchSizes{sfMain: 0.002, sfColumba: 0.0005, schedule: []string{vektor, vektor, vektor, vektor, fusil, columba}}
	tpchSmoke  = tpchSizes{sfMain: 0.001, sfColumba: 0.0002, schedule: []string{vektor, fusil, columba}}
)

// goldenEntry pins one query's answer on one scale factor.
type goldenEntry struct {
	Hash string `json:"hash"` // sha256 of the exact-bit multiset fingerprint
	Rows int    `json:"rows"`
}

//go:embed testdata/tpch_golden.json
var goldenJSON []byte

// loadGolden returns scale factor -> query id -> golden answer.
func loadGolden() (map[string]map[string]goldenEntry, error) {
	var g map[string]map[string]goldenEntry
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("decoding tpch_golden.json: %w", err)
	}
	return g, nil
}

func sfKey(sf float64) string { return strconv.FormatFloat(sf, 'g', -1, 64) }

// fingerprint hashes a result exactly: kinds, float bit patterns and column
// names all count, row order does not.
func fingerprint(r *engine.Result) string {
	sum := sha256.Sum256([]byte(fuzzdiff.Fingerprint(r)))
	return hex.EncodeToString(sum[:])
}

func tpchDB(sf float64) *engine.Database {
	return datagen.TPCH(datagen.TPCHOptions{ScaleFactor: sf, Seed: dataSeed})
}

type tpchPower struct {
	cfg     config
	sizes   tpchSizes
	queries []workload.Query
	golden  map[string]map[string]goldenEntry

	reg    *engine.Registry
	dbMain *engine.Database
	dbCol  *engine.Database
	// lastPasses holds the last window's per-engine pass times in seconds.
	lastPasses map[string][]float64
}

func newTPCHPower(cfg config) *tpchPower {
	t := &tpchPower{cfg: cfg, sizes: tpchNormal, queries: workload.TPCH()}
	if cfg.smoke {
		t.sizes = tpchSmoke
	}
	return t
}

func (t *tpchPower) dbFor(key string) (*engine.Database, float64) {
	if key == columba {
		return t.dbCol, t.sizes.sfColumba
	}
	return t.dbMain, t.sizes.sfMain
}

// setup generates both databases and runs one untimed pass per engine, so
// that the plan cache and the typed-import caches are hot when the window
// opens.
func (t *tpchPower) setup() error {
	if t.golden == nil {
		g, err := loadGolden()
		if err != nil {
			return err
		}
		t.golden = g
	}
	t.reg = engine.NewRegistry()
	t.dbMain = tpchDB(t.sizes.sfMain)
	t.dbCol = tpchDB(t.sizes.sfColumba)
	for _, key := range benchEngines {
		db, _ := t.dbFor(key)
		for _, q := range t.queries {
			if _, err := t.reg.Get(key).Execute(db, q.SQL, engine.ExecOptions{Parallelism: 1}); err != nil {
				return fmt.Errorf("warm-up %s on %s: %w", q.ID, key, err)
			}
		}
	}
	return nil
}

func (t *tpchPower) window(d time.Duration, rec *recorder) (*windowResult, error) {
	engines := map[string]engine.Engine{}
	var parent atomic.Int64
	for _, key := range benchEngines {
		engines[key] = t.reg.Get(key)
		if rec != nil {
			engines[key] = newTracedEngine(t.reg, key, rec, &parent, &inflight{})
		}
	}
	rng := rand.New(rand.NewSource(t.cfg.seed))
	win := &windowResult{}
	passes := map[string][]float64{}
	h0, m0 := t.reg.PlanCache().Stats()
	root := rec.begin(0, "harness", "window tpch_power", "")
	start := time.Now()
	// The deadline is checked between cycles only, so every window holds
	// whole cycles and the mix of engines in it never varies.
	for time.Since(start) < d {
		cycleStart := time.Now()
		var samples []sample
		for _, key := range t.sizes.schedule {
			db, sf := t.dbFor(key)
			golden := t.golden[sfKey(sf)]
			ps := rec.begin(root, "harness", "pass "+key, "")
			parent.Store(int64(ps))
			var pass time.Duration
			for _, qi := range rng.Perm(len(t.queries)) {
				q := t.queries[qi]
				win.tick()
				t0 := time.Now()
				res, err := engines[key].Execute(db, q.SQL, engine.ExecOptions{Parallelism: 1})
				dt := time.Since(t0)
				win.ops++
				if err != nil || res.NumRows() != golden[q.ID].Rows {
					win.failed++
					continue
				}
				pass += dt
				samples = append(samples, sample{key + "." + q.ID, ms(dt)})
			}
			rec.end(ps)
			passes[key] = append(passes[key], pass.Seconds())
		}
		win.closeCycle(time.Since(cycleStart), len(samples), samples)
	}
	win.wall = time.Since(start)
	rec.end(root)
	h1, m1 := t.reg.PlanCache().Stats()
	win.planHits, win.planMisses = h1-h0, m1-m0
	t.lastPasses = passes
	return win, nil
}

// verify compares every engine's answers, bit for bit, with the checked-in
// golden of its scale factor, runs all three engines on the small database
// so that they are also compared with each other, and checks that no TPC-H
// query falls back to the interpreter on the verdict-routed engines.
func (t *tpchPower) verify(rep *report, win *windowResult) {
	check := func(key string, db *engine.Database, sf float64) {
		golden, ok := t.golden[sfKey(sf)]
		if !ok {
			rep.problem("no golden fingerprints for SF %s", sfKey(sf))
			return
		}
		for _, q := range t.queries {
			res, err := t.reg.Get(key).Execute(db, q.SQL, engine.ExecOptions{Parallelism: 1})
			if err != nil {
				rep.problem("%s %s at SF %s: %v", key, q.ID, sfKey(sf), err)
				continue
			}
			if got := fingerprint(res); got != golden[q.ID].Hash {
				rep.problem("%s %s at SF %s: result fingerprint %.12s differs from golden %.12s", key, q.ID, sfKey(sf), got, golden[q.ID].Hash)
			}
		}
	}
	before := len(rep.problems)
	for _, key := range benchEngines {
		db, sf := t.dbFor(key)
		check(key, db, sf)
		if key != columba {
			check(key, t.dbCol, t.sizes.sfColumba)
		}
	}
	if len(rep.problems) == before {
		rep.note("fingerprints: 3 engines x 22 queries match the golden at SF %s and SF %s", sfKey(t.sizes.sfMain), sfKey(t.sizes.sfColumba))
	}
	if n, err := countFallbacks(t.reg, t.dbMain, t.queries); err != nil || n > 0 {
		rep.problem("%d TPC-H statements fall back to the interpreter on vektor-2.0 or fusil-1.0 (%v)", n, err)
	}
	for _, key := range benchEngines {
		var geo []float64
		for _, q := range t.queries {
			geo = append(geo, median(win.classes[key+"."+q.ID]))
		}
		_, sf := t.dbFor(key)
		rep.note("power_s.%s %.6f s on the clock (median of %d passes, SF %s)  geomean_ms.%s %.6f ms at the reference host speed",
			key, median(t.lastPasses[key]), len(t.lastPasses[key]), sfKey(sf), key, geomean(geo))
	}
}

// countFallbacks counts the (engine, query) pairs the plan routes to the
// interpreter instead of the verdict-routed engine's own executor.
func countFallbacks(reg *engine.Registry, db *engine.Database, queries []workload.Query) (int, error) {
	n := 0
	for _, q := range queries {
		routes, err := reg.Routes(db, q.SQL)
		if err != nil {
			return 0, fmt.Errorf("routing %s: %w", q.ID, err)
		}
		for _, r := range routes {
			if (r.Engine == vektor || r.Engine == fusil) && r.Fallback {
				n++
			}
		}
	}
	return n, nil
}

func (t *tpchPower) close() {}

// printGolden prints testdata/tpch_golden.json for every scale factor the
// workload uses, refusing to if the engines do not agree on an answer.
func printGolden() ([]byte, error) {
	reg := engine.NewRegistry()
	out := map[string]map[string]goldenEntry{}
	for _, sf := range []float64{tpchNormal.sfMain, tpchNormal.sfColumba, tpchSmoke.sfMain, tpchSmoke.sfColumba} {
		db := tpchDB(sf)
		entries := map[string]goldenEntry{}
		for _, q := range workload.TPCH() {
			for _, key := range benchEngines {
				if key == columba && sf > tpchNormal.sfColumba {
					continue
				}
				res, err := reg.Get(key).Execute(db, q.SQL, engine.ExecOptions{Parallelism: 1})
				if err != nil {
					return nil, fmt.Errorf("%s %s at SF %s: %w", key, q.ID, sfKey(sf), err)
				}
				e := goldenEntry{Hash: fingerprint(res), Rows: res.NumRows()}
				if prev, ok := entries[q.ID]; ok && prev != e {
					return nil, fmt.Errorf("%s at SF %s: %s disagrees with the engines before it", q.ID, sfKey(sf), key)
				}
				entries[q.ID] = e
			}
		}
		out[sfKey(sf)] = entries
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
