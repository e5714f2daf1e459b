package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"sqalpel/internal/derive"
	"sqalpel/internal/pool"
	"sqalpel/internal/workload"
)

var updatePoolGolden = flag.Bool("update-pool-golden", false, "rewrite testdata/pool_golden.txt from this tree's pool growth")

const poolGoldenFile = "testdata/pool_golden.txt"

// poolHash identifies a variant set the way sqalpelbench's search_variants
// does: SHA-256 over id|strategy|parent|SQL of every entry in id order.
func poolHash(p *pool.Pool) string {
	h := sha256.New()
	for _, e := range p.Entries() {
		fmt.Fprintf(h, "%d|%s|%d|%s\n", e.ID, e.Strategy, e.ParentID, e.SQL)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// derivedPool builds a fresh pool over the grammar derived from a TPC-H
// baseline.
func derivedPool(t *testing.T, id string, opts pool.Options) *pool.Pool {
	t.Helper()
	q, err := workload.TPCHQuery(id)
	if err != nil {
		t.Fatal(err)
	}
	g, err := derive.FromSQL(q.SQL, derive.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p, err := pool.New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// goldenPools grows every pinned pool and returns "name hash" lines in a
// fixed order. The pools cover the two shapes the platform grows — a
// project's GrowPool(60) and the server's 400-morph experiment pool — on the
// four search baselines and three seeds each, plus one pool grown under
// include/exclude lists and a restricted strategy set, and three spaces
// asked for more sentences than they hold.
func goldenPools(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, id := range []string{"Q1", "Q2", "Q12", "Q18"} {
		q, err := workload.TPCHQuery(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 42, 42001} {
			proj, err := NewProject(id, q.SQL, ProjectOptions{Pool: pool.Options{Seed: seed}})
			if err != nil {
				t.Fatal(err)
			}
			grown := proj.GrowPool(60)
			lines = append(lines, fmt.Sprintf("%s/seed%d/GrowPool60 %d %s", id, seed, grown, poolHash(proj.Pool())))

			p := derivedPool(t, id, pool.Options{Seed: seed})
			added := len(p.Grow(400))
			lines = append(lines, fmt.Sprintf("%s/seed%d/Grow400 %d %s", id, seed, added, poolHash(p)))
		}
	}

	// Steered growth: random seeding and morphing under an include list, then
	// under an exclude list with alter and prune only, then unrestricted.
	p := derivedPool(t, "Q1", pool.Options{Seed: 9})
	p.SetSteering(pool.Steering{IncludeLiterals: []string{"l_returnflag"}})
	seeded, err := p.SeedRandom(12)
	if err != nil {
		t.Fatal(err)
	}
	n := len(seeded) + len(p.Grow(40))
	p.SetSteering(pool.Steering{
		ExcludeLiterals: []string{"l_discount", "avg("},
		Strategies:      []pool.Strategy{pool.StrategyAlter, pool.StrategyPrune},
	})
	n += len(p.Grow(40))
	p.SetSteering(pool.Steering{})
	n += len(p.Grow(40))
	lines = append(lines, fmt.Sprintf("Q1/seed9/steered %d %s", n, poolHash(p)))

	// Spaces smaller than the request: what was added before the space ran
	// out must not depend on how soon the pool notices that it has.
	for _, c := range []struct {
		id         string
		seed, grow int
	}{{"Q6", 200, 50}, {"Q14", 0, 10}, {"Q12", 0, 1500}} {
		p := derivedPool(t, c.id, pool.Options{Seed: 7})
		seeded, err := p.SeedRandom(c.seed)
		if err != nil {
			t.Fatal(err)
		}
		n := len(seeded) + len(p.Grow(c.grow))
		lines = append(lines, fmt.Sprintf("%s/seed7/SeedRandom%d+Grow%d %d %s", c.id, c.seed, c.grow, n, poolHash(p)))
	}
	return lines
}

// TestPoolGrowthGolden pins the variant sets: every seed must grow the pool
// the commit before the template lattice grew — same ids, strategies,
// parents and SQL. The hashes in testdata/pool_golden.txt were computed at
// that commit (34f69ab); regenerate them only for an intended change of the
// morphing walk, with -update-pool-golden.
func TestPoolGrowthGolden(t *testing.T) {
	got := goldenPools(t)
	if *updatePoolGolden {
		if err := os.WriteFile(poolGoldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(poolGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(got) != len(want) {
		t.Fatalf("%d pinned pools, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("pool differs from the golden:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
