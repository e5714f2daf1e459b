package engine

import (
	"fmt"
	"strings"
	"testing"
)

// TestSlotsMatchNameLookup runs the shapes that decide where a column
// reference is found — correlation depth, shadowing, aliases, set-operation
// branches, NULL extension, the empty global group, no FROM at all — on both
// interpreter layouts with every column read held to the name lookup
// (CheckSlots), and pins the answers. The typed engines resolve names on
// their own (internal/vexec), so their agreement is an independent check.
func TestSlotsMatchNameLookup(t *testing.T) {
	db := miniDB()
	cases := []struct {
		id, sql string
		want    string // rows as "a|b;c|d", or "error: <substring>"
		reads   bool   // the statement reads at least one column; a refused one reads none
	}{
		{"correlation-depth-1",
			"SELECT n_name FROM nation WHERE EXISTS (SELECT 1 FROM orders WHERE o_nationkey = n_nationkey AND o_total > 200)",
			"EGYPT", true},
		{"correlation-depth-2",
			"SELECT r_name FROM region WHERE EXISTS (SELECT 1 FROM nation WHERE n_regionkey = r_regionkey AND EXISTS (SELECT 1 FROM orders WHERE o_nationkey = n_nationkey AND o_total > 190 AND r_name <> 'AMERICA'))",
			"AFRICA", true},
		{"inner-name-shadows-outer",
			"SELECT a.n_name FROM nation a WHERE EXISTS (SELECT 1 FROM nation WHERE n_regionkey = a.n_nationkey AND n_nationkey > 5) ORDER BY a.n_name",
			"ALGERIA;ARGENTINA", true},
		{"uncorrelated-subquery-own-chain",
			"SELECT n_name FROM nation WHERE n_nationkey IN (SELECT n_regionkey FROM nation WHERE n_nationkey > 5) ORDER BY n_name",
			"ALGERIA;ARGENTINA", true},
		{"self-join-ambiguity",
			"SELECT n_name FROM nation a, nation b WHERE a.n_nationkey = b.n_regionkey",
			`error: ambiguous column reference "n_name"`, false},
		{"self-join-ambiguity-no-row-reaches-it",
			"SELECT n_name FROM nation a, nation b WHERE a.n_nationkey = b.n_regionkey AND a.n_nationkey > 100",
			`error: ambiguous column reference "n_name"`, false},
		{"unknown-column-no-row-reaches-it",
			"SELECT nosuch FROM nation WHERE n_nationkey > 100",
			"error: unknown column nosuch", false},
		{"unknown-qualified-column",
			"SELECT n.nosuch FROM nation n",
			"error: unknown column n.nosuch", false},
		{"derived-table-alias-rename",
			"SELECT d.k, d.total FROM (SELECT o_nationkey AS k, sum(o_total) AS total FROM orders GROUP BY o_nationkey) d WHERE d.k < 2 ORDER BY d.k",
			"0|252;1|283.5", true},
		{"derived-table-hides-base-alias",
			"SELECT orders.o_nationkey FROM (SELECT o_nationkey FROM orders) d",
			"error: unknown column orders.o_nationkey", false},
		{"set-operation-branches",
			"SELECT n_name FROM nation WHERE n_nationkey < 2 UNION ALL SELECT r_name FROM region WHERE r_regionkey = 2",
			"ALGERIA;ARGENTINA;ASIA", true},
		{"correlated-set-operation-branch",
			"SELECT r_name FROM region WHERE r_regionkey IN (SELECT n_regionkey FROM nation WHERE n_nationkey = 7 UNION SELECT o_nationkey FROM orders WHERE o_orderkey = r_regionkey + 1)",
			"AMERICA", true},
		{"left-join-pair-residual-null-extension",
			"SELECT r_name, n_name FROM region LEFT JOIN nation ON n_regionkey = r_regionkey AND n_nationkey > r_regionkey + 4 ORDER BY r_name",
			"AFRICA|GERMANY;AMERICA|INDIA;ASIA|NULL", true},
		{"filter-on-null-extended-column",
			"SELECT r_name FROM region LEFT JOIN nation ON n_regionkey = r_regionkey AND n_nationkey > 5 WHERE n_name IS NULL",
			"ASIA", true},
		{"subquery-inside-on-condition",
			"SELECT r_name, n_name FROM region LEFT JOIN nation ON n_regionkey = r_regionkey AND n_nationkey = (SELECT max(o_nationkey) FROM orders WHERE o_nationkey < r_regionkey + 7) ORDER BY r_name",
			"AFRICA|GERMANY;AMERICA|INDIA;ASIA|NULL", true},
		{"empty-global-group",
			"SELECT n_name, count(*) FROM nation WHERE n_nationkey > 100",
			"NULL|0", true},
		{"empty-global-group-outer-column",
			"SELECT r_name FROM region WHERE r_regionkey = (SELECT count(*) + r_regionkey FROM nation WHERE n_nationkey > 100) ORDER BY r_name",
			"AFRICA;AMERICA;ASIA", true},
		{"select-without-from",
			"SELECT 1 + 2",
			"3", false},
		{"correlated-select-without-from",
			"SELECT n_name FROM nation WHERE n_nationkey = (SELECT n_regionkey + 3) ORDER BY n_name",
			"CANADA;EGYPT;FRANCE", true},
		{"common-or-lift-key-and-residual",
			"SELECT n_name FROM nation, region WHERE (n_regionkey = r_regionkey AND r_name = 'ASIA') OR (n_regionkey = r_regionkey AND n_name = 'CANADA') ORDER BY n_name",
			"BRAZIL;CANADA;FRANCE", true},
	}
	render := func(res *Result, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		var rows []string
		for _, r := range res.Rows() {
			var cells []string
			for _, v := range r {
				cells = append(cells, v.String())
			}
			rows = append(rows, strings.Join(cells, "|"))
		}
		return strings.Join(rows, ";")
	}
	reg := NewRegistry()
	for _, c := range cases {
		for _, key := range []string{"tuplestore-1.0", "columba-1.0", "columba-2.0"} {
			t.Run(fmt.Sprintf("%s/%s", c.id, key), func(t *testing.T) {
				stop := CheckSlots(t)
				got := render(reg.Get(key).Execute(db, c.sql, ExecOptions{}))
				reads := stop()
				if want, isErr := strings.CutPrefix(c.want, "error: "); isErr {
					if !strings.HasPrefix(got, "error: ") || !strings.Contains(got, want) {
						t.Errorf("got %q, want an error with %q", got, want)
					}
				} else if got != c.want {
					t.Errorf("got %q, want %q", got, c.want)
				}
				if c.reads && reads == 0 {
					t.Errorf("the oracle saw no column read")
				}
			})
		}
	}
}
