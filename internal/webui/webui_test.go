package webui

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"sqalpel/internal/analytics"
	"sqalpel/internal/catalog"
	"sqalpel/internal/repository"
)

func sampleProject() *repository.Project {
	return &repository.Project{
		ID: 1, Name: "tpch-q1", Synopsis: "Q1 variants", Owner: "martin", Public: true,
		Attribution:  "TPC-H inspired generator",
		Contributors: []*repository.Contributor{{Nickname: "martin", Key: "secret-key"}},
		Experiments: []*repository.Experiment{{
			ID: 1, Title: "Q1", BaselineSQL: "SELECT count(*) FROM lineitem",
			GrammarText: "query:\n\tSELECT ${l_projection} FROM lineitem\nl_projection:\n\tcount(*)\n",
			Queries: []repository.QueryRecord{
				{ID: 1, SQL: "SELECT count(*) FROM lineitem", Strategy: "baseline", Components: 1},
				{ID: 2, SQL: "SELECT l_quantity FROM lineitem", Strategy: "alter", ParentID: 1, Components: 1},
			},
			Created: time.Now(),
		}},
	}
}

func TestRenderAllPages(t *testing.T) {
	r, err := New()
	if err != nil {
		t.Fatal(err)
	}
	p := sampleProject()

	var buf bytes.Buffer
	if err := r.Index(&buf, IndexData{
		Viewer:    "martin",
		Projects:  []*repository.Project{p},
		DBMS:      catalog.Bootstrap().ListDBMS(),
		Platforms: catalog.Bootstrap().ListPlatforms(),
	}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"tpch-q1", "columba", "Platform catalog", "signed in as"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("index page missing %q", want)
		}
	}

	buf.Reset()
	err = r.Project(&buf, ProjectData{
		Project: p,
		Results: []*repository.Result{
			{ID: 1, ExperimentID: 1, QueryID: 1, DBMSKey: "columba-1.0", PlatformKey: "laptop", Seconds: []float64{0.25}},
			{ID: 2, ExperimentID: 1, QueryID: 2, DBMSKey: "columba-1.0", PlatformKey: "laptop", Error: "boom"},
		},
		Comments: []*repository.Comment{{Author: "eve", Text: "document the indexes"}},
		Tasks:    []*repository.Task{{ID: 1, QueryID: 1, DBMSKey: "columba-1.0", PlatformKey: "laptop", Status: repository.TaskDone}},
	})
	if err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	for _, want := range []string{"tpch-q1", "0.2500", "boom", "document the indexes", "done"} {
		if !strings.Contains(page, want) {
			t.Errorf("project page missing %q", want)
		}
	}
	if strings.Contains(page, "secret-key") {
		t.Error("contributor keys must never be rendered")
	}

	buf.Reset()
	if err := r.Grammar(&buf, GrammarData{Project: p, Experiment: p.Experiments[0]}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "l_projection") {
		t.Error("grammar page missing the grammar text")
	}

	pool := poolPage(PoolData{Project: p, Experiment: p.Experiments[0]})
	if !strings.Contains(pool, "strategy-alter") {
		t.Error("pool page missing strategy colouring")
	}

	history := string(AppendHistory(nil, HistoryData{
		Project: p, Target: "columba-1.0@laptop", Targets: []string{"columba-1.0@laptop"},
		Points: []analytics.HistoryPoint{
			{Seq: 1, QueryID: 1, Strategy: "baseline", Components: 1, Seconds: 0.25},
			{Seq: 2, QueryID: 2, ParentID: 1, Strategy: "alter", Components: 1, IsError: true},
		},
	}))
	if !strings.Contains(history, "error") || !strings.Contains(history, "0.2500") {
		t.Error("history page missing error flag or timing")
	}

	buf.Reset()
	err = r.Diff(&buf, DiffData{
		Project: p,
		Diff: analytics.Differential{
			QueryA: 1, QueryB: 2,
			OnlyA: []string{"count(*)"}, OnlyB: []string{"l_quantity"},
			Times: map[string][2]float64{"columba-1.0@laptop": {0.25, 0.11}},
		},
		SQLA: p.Experiments[0].Queries[0].SQL,
		SQLB: p.Experiments[0].Queries[1].SQL,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "l_quantity") || !strings.Contains(buf.String(), "0.1100") {
		t.Error("diff page incomplete")
	}
}

func TestTemplatesEscapeHTML(t *testing.T) {
	p := sampleProject()
	p.Experiments[0].Queries[0].SQL = "SELECT '<script>alert(1)</script>' FROM lineitem"
	pool := poolPage(PoolData{Project: p, Experiment: p.Experiments[0]})
	if !strings.Contains(pool, "&lt;script&gt;") || strings.Contains(pool, "<script>alert(1)</script>") {
		t.Error("query text must be HTML-escaped")
	}
}
