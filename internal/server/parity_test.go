package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"sqalpel/internal/analytics"
	"sqalpel/internal/derive"
	"sqalpel/internal/discriminative"
	"sqalpel/internal/driver"
	"sqalpel/internal/metrics"
	"sqalpel/internal/pool"
	"sqalpel/internal/workload"
)

// getJSON decodes the body of a GET that must answer 200.
func (c *testClient) getJSON(path string, out any) {
	c.t.Helper()
	status, resp := c.do("GET", path, nil)
	if status != http.StatusOK {
		c.t.Fatalf("GET %s = %d", path, status)
	}
	if err := json.Unmarshal([]byte(resp["_raw"].(string)), out); err != nil {
		c.t.Fatalf("GET %s: %v", path, err)
	}
}

// paritySim is a deterministic simulated system: its cost is a base, a
// surcharge per matching term and a per-query fingerprint, reported through
// metrics.SimulatedDurationKey so every path measures the same bits.
func paritySim(term string, surcharge time.Duration) metrics.Target {
	return metrics.TargetFunc(func(q string) (int, map[string]string, error) {
		d := 200 * time.Microsecond
		if strings.Contains(q, term) {
			d += surcharge
		}
		for _, r := range q {
			d += time.Duration(r % 13)
		}
		return 1, map[string]string{metrics.SimulatedDurationKey: fmt.Sprint(d.Nanoseconds())}, nil
	})
}

// TestRankingParityAcrossFrontEnds feeds one set of simulated measurements
// through the in-process search and through the platform (driver → server →
// repository → analytics) and requires, for every SQL text, the same ratio
// bit for bit and the same order in both directions.
func TestRankingParityAcrossFrontEnds(t *testing.T) {
	const seedRandom = 12
	targets := map[string]metrics.Target{
		"a": paritySim("n_comment", 9*time.Millisecond),
		"b": paritySim("n_regionkey", 9*time.Millisecond),
	}

	// The platform: an experiment whose pool the server seeds, drained by
	// one driver per target.
	c, _ := newTestClient(t)
	c.token = c.register("martin", "martin@example.org")
	status, resp := c.do("POST", "/api/projects", map[string]any{"name": "parity", "public": true})
	if status != http.StatusCreated {
		t.Fatalf("create project = %d %v", status, resp)
	}
	pid := int(resp["project"].(map[string]any)["id"].(float64))
	key := resp["key"].(string)
	status, resp = c.do("POST", fmt.Sprintf("/api/projects/%d/experiments", pid), map[string]any{
		"title": "parity", "baseline_sql": workload.NationBaselineQuery, "seed_random": seedRandom,
	})
	if status != http.StatusCreated {
		t.Fatalf("create experiment = %d %v", status, resp)
	}
	eid := int(resp["experiment_id"].(float64))
	for _, name := range []string{"a", "b"} {
		client, err := driver.NewClient(driver.Config{
			Server: c.srv.URL, Key: key, DBMS: name, Platform: "sim", Experiment: eid, Runs: 3, Timeout: time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.RunAll(targets[name], 0); err != nil {
			t.Fatal(err)
		}
	}
	var hist []analytics.HistoryPoint
	c.getJSON(fmt.Sprintf("/api/projects/%d/analytics/history?target=a@sim", pid), &hist)
	platformSQL := map[int]string{}
	for _, h := range hist {
		platformSQL[h.QueryID] = h.SQL
	}

	// In process: the same grammar and pool seed the server uses.
	g, err := derive.FromSQL(workload.NationBaselineQuery, derive.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pl, err := pool.New(g, pool.Options{Seed: int64(pid)*1000 + 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.SeedRandom(seedRandom); err != nil {
		t.Fatal(err)
	}
	if len(platformSQL) != pl.Size() {
		t.Fatalf("platform measured %d queries, the in-process pool has %d", len(platformSQL), pl.Size())
	}
	for _, e := range pl.Entries() {
		if platformSQL[e.ID] != e.SQL {
			t.Fatalf("pools diverge at #%d:\n platform:   %s\n in process: %s", e.ID, platformSQL[e.ID], e.SQL)
		}
	}
	s, err := discriminative.New(pl, targets, discriminative.Options{Runs: 3, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.MeasurePending()

	for _, dir := range [][2]string{{"a", "b"}, {"b", "a"}} {
		fast, slow := dir[0], dir[1]
		var inProcess []string
		for _, f := range s.Better(fast, slow, 0) {
			inProcess = append(inProcess, fmt.Sprintf("%x %s", f.Ratio, f.Outcome.Entry.SQL))
		}
		// Better(fast, slow) ranks time(slow)/time(fast): the platform's
		// speedup of slow over the fast base.
		var sum analytics.SpeedupSummary
		c.getJSON(fmt.Sprintf("/api/projects/%d/analytics/speedup?base=%s@sim&other=%s@sim", pid, fast, slow), &sum)
		var points []analytics.SpeedupPoint
		for _, p := range sum.Points {
			if p.Factor > 1 {
				points = append(points, p)
			}
		}
		sort.SliceStable(points, func(i, j int) bool { return points[i].Factor > points[j].Factor })
		var platform []string
		for _, p := range points {
			platform = append(platform, fmt.Sprintf("%x %s", p.Factor, platformSQL[p.QueryID]))
		}
		if len(inProcess) == 0 {
			t.Fatalf("%s over %s: no findings; the test proves nothing", fast, slow)
		}
		if strings.Join(inProcess, "\n") != strings.Join(platform, "\n") {
			t.Errorf("%s over %s: rankings differ\n in process:\n%s\n platform:\n%s", fast, slow,
				strings.Join(inProcess, "\n"), strings.Join(platform, "\n"))
		}
		for _, p := range sum.Points {
			if math.IsNaN(p.Factor) || p.Factor <= 0 {
				t.Errorf("%s over %s: query %d has factor %v", fast, slow, p.QueryID, p.Factor)
			}
		}
	}
}
