// Package derive converts a baseline SQL query into a sqalpel query-space
// grammar, following the heuristics described in the paper: the query is
// split along projection-list elements, table expressions, sub-queries,
// AND/OR expression terms, GROUP BY and ORDER BY terms; the remaining pieces
// become literal tokens of lexical rules.
//
// The resulting grammar describes a query space whose largest sentence is
// (equivalent to) the baseline query and whose other sentences are morphed
// variants obtained by dropping or swapping components.
package derive

import (
	"fmt"
	"strings"

	"sqalpel/internal/grammar"
	"sqalpel/internal/sqlparser"
)

// Options control the derivation heuristics.
type Options struct {
	// ExplicitJoinPaths keeps equality predicates that link columns of two
	// different tables (classic join edges) as a fixed part of the query
	// instead of optional filter terms. This is the manual grammar edit the
	// paper recommends to avoid a combinatorial explosion of semantically
	// silly cross products; it is on by default.
	ExplicitJoinPaths bool
}

// DefaultOptions are the options used by the platform.
func DefaultOptions() Options {
	return Options{ExplicitJoinPaths: true}
}

// FromSQL parses the baseline query and derives its grammar.
func FromSQL(sql string, opts Options) (*grammar.Grammar, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, fmt.Errorf("baseline query does not parse: %w", err)
	}
	return FromStatement(stmt, opts)
}

// FromStatement derives the grammar of an already parsed baseline query.
func FromStatement(stmt *sqlparser.SelectStatement, opts Options) (*grammar.Grammar, error) {
	if stmt.SetNext != nil {
		return nil, fmt.Errorf("set operations (UNION/EXCEPT/INTERSECT) are not supported as baseline queries")
	}
	d := &deriver{opts: opts, g: grammar.New("query")}
	if err := d.build(stmt); err != nil {
		return nil, err
	}
	if err := d.g.Validate(); err != nil {
		return nil, fmt.Errorf("derived grammar is invalid: %w", err)
	}
	return d.g, nil
}

type deriver struct {
	opts    Options
	g       *grammar.Grammar
	line    int
	orCount int
}

// nextLine hands out synthetic line numbers so every literal has a distinct
// identity, mirroring the paper's "differentiated by their line number".
func (d *deriver) nextLine() int {
	d.line++
	return d.line
}

func (d *deriver) addLexical(name string, texts []string) {
	r := &grammar.Rule{Name: name, Line: d.nextLine()}
	for _, t := range texts {
		r.Alternatives = append(r.Alternatives, grammar.Alternative{
			Line:     d.nextLine(),
			Elements: []grammar.Element{{Text: t}},
		})
	}
	d.g.AddRule(r)
}

func (d *deriver) addRule(name string, alts ...[]grammar.Element) {
	r := &grammar.Rule{Name: name, Line: d.nextLine()}
	for _, elems := range alts {
		r.Alternatives = append(r.Alternatives, grammar.Alternative{Line: d.nextLine(), Elements: elems})
	}
	d.g.AddRule(r)
}

func ref(name string) grammar.Element {
	return grammar.Element{Ref: name, Kind: grammar.RefRequired}
}

func opt(name string) grammar.Element {
	return grammar.Element{Ref: name, Kind: grammar.RefOptional}
}

func star(name string) grammar.Element {
	return grammar.Element{Ref: name, Kind: grammar.RefStar}
}

func lit(text string) grammar.Element {
	return grammar.Element{Text: text}
}

func (d *deriver) build(stmt *sqlparser.SelectStatement) error {
	var query []grammar.Element

	// SELECT [DISTINCT] ${projection}
	head := "SELECT"
	if stmt.Distinct {
		head = "SELECT DISTINCT"
	}
	query = append(query, lit(head), ref("projection"))

	// Projection: one lexical literal per projection-list element.
	var projTexts []string
	for _, item := range stmt.Projection {
		projTexts = append(projTexts, item.SQL())
	}
	if len(projTexts) == 0 {
		return fmt.Errorf("baseline query has an empty projection")
	}
	d.addRule("projection", []grammar.Element{ref("l_projection"), star("projectionlist")})
	d.addRule("projectionlist", []grammar.Element{lit(","), ref("l_projection")})
	d.addLexical("l_projection", projTexts)

	// FROM clause: the table expressions form a single literal; each comma
	// separated table expression is its own literal so that pruning can drop
	// unused tables, but the first one is required.
	if len(stmt.From) > 0 {
		query = append(query, lit("FROM"), ref("l_tables"))
		var fromTexts []string
		var full []string
		for _, t := range stmt.From {
			full = append(full, t.SQL())
		}
		fromTexts = append(fromTexts, strings.Join(full, ", "))
		d.addLexical("l_tables", fromTexts)
	}

	// WHERE clause: split into top-level conjuncts. Join-path predicates may
	// be kept mandatory; the rest become optional filter terms.
	if stmt.Where != nil {
		conjuncts := splitConjuncts(stmt.Where)
		var joinTexts, filterElems []string
		type orGroup struct {
			name string
			// arms holds, per OR arm, the conjunct texts of that arm; a
			// single-element slice is a plain literal arm.
			arms [][]string
		}
		var orGroups []orGroup
		for _, c := range conjuncts {
			if d.opts.ExplicitJoinPaths && isJoinPredicate(c) {
				joinTexts = append(joinTexts, c.SQL())
				continue
			}
			// A top-level OR conjunct becomes its own sub-rule, so its arms
			// can be toggled one by one (TPC-H Q19).
			if terms := splitDisjuncts(c); len(terms) > 1 {
				d.orCount++
				name := fmt.Sprintf("orterm%d", d.orCount)
				og := orGroup{name: name}
				for _, t := range terms {
					var armTexts []string
					for _, part := range splitConjuncts(t) {
						armTexts = append(armTexts, part.SQL())
					}
					og.arms = append(og.arms, armTexts)
				}
				orGroups = append(orGroups, og)
				continue
			}
			filterElems = append(filterElems, c.SQL())
		}

		hasFilterRule := len(filterElems) > 0 || len(orGroups) > 0
		switch {
		case len(joinTexts) > 0 && hasFilterRule:
			query = append(query, lit("WHERE"), ref("l_joinpath"), ref("filter"))
		case len(joinTexts) > 0:
			query = append(query, lit("WHERE"), ref("l_joinpath"))
		case hasFilterRule:
			query = append(query, lit("WHERE"), ref("filterhead"))
		}
		if len(joinTexts) > 0 {
			d.addLexical("l_joinpath", []string{strings.Join(joinTexts, " AND ")})
		}

		if hasFilterRule {
			// filterhead is used when there is no mandatory join path: the
			// first filter term has no leading AND. filter always prefixes
			// its terms with AND.
			if len(joinTexts) == 0 {
				d.addRule("filterhead", []grammar.Element{ref("predicate"), star("filterlist")})
				d.addRule("filterlist", []grammar.Element{lit("AND"), ref("predicate")})
			} else {
				d.addRule("filter", []grammar.Element{star("filterand")})
				d.addRule("filterand", []grammar.Element{lit("AND"), ref("predicate")})
			}
			// predicate: plain literal terms plus one alternative per OR
			// group.
			var predAlts [][]grammar.Element
			if len(filterElems) > 0 {
				predAlts = append(predAlts, []grammar.Element{ref("l_predicate")})
			}
			for _, og := range orGroups {
				predAlts = append(predAlts, []grammar.Element{ref(og.name)})
			}
			d.addRule("predicate", predAlts...)
			if len(filterElems) > 0 {
				d.addLexical("l_predicate", filterElems)
			}
			for _, og := range orGroups {
				// Each OR group becomes
				//   ortermN:      ( ${ortermN_arm} ${ortermNlist}* )
				//   ortermNlist:  OR ${ortermN_arm}
				//   ortermN_arm:  one alternative per arm — either a plain
				//                 literal or a reference to the arm's own
				//                 AND-list structure, so complex arms (the
				//                 TPC-H Q19 pattern) can be pruned term by
				//                 term.
				listName := og.name + "list"
				armRule := og.name + "_arm"
				d.addRule(og.name, []grammar.Element{lit("("), ref(armRule), star(listName), lit(")")})
				d.addRule(listName, []grammar.Element{lit("OR"), ref(armRule)})

				var armAlts [][]grammar.Element
				var simpleTexts []string
				for m, armTexts := range og.arms {
					if len(armTexts) == 1 {
						simpleTexts = append(simpleTexts, armTexts[0])
						continue
					}
					armName := fmt.Sprintf("%s_arm%d", og.name, m+1)
					armList := armName + "list"
					armLit := "l_" + armName
					d.addRule(armName, []grammar.Element{lit("("), ref(armLit), star(armList), lit(")")})
					d.addRule(armList, []grammar.Element{lit("AND"), ref(armLit)})
					d.addLexical(armLit, armTexts)
					armAlts = append(armAlts, []grammar.Element{ref(armName)})
				}
				if len(simpleTexts) > 0 {
					simpleLit := "l_" + og.name
					d.addLexical(simpleLit, simpleTexts)
					armAlts = append(armAlts, []grammar.Element{ref(simpleLit)})
				}
				d.addRule(armRule, armAlts...)
			}
		}
	}

	// GROUP BY terms, with HAVING as an optional trailing literal.
	if len(stmt.GroupBy) > 0 {
		query = append(query, opt("groupby"))
		var terms []string
		for _, g := range stmt.GroupBy {
			terms = append(terms, g.SQL())
		}
		elems := []grammar.Element{lit("GROUP BY"), ref("l_group"), star("grouplist")}
		if stmt.Having != nil {
			elems = append(elems, opt("l_having"))
			d.addLexical("l_having", []string{"HAVING " + stmt.Having.SQL()})
		}
		d.addRule("groupby", elems)
		d.addRule("grouplist", []grammar.Element{lit(","), ref("l_group")})
		d.addLexical("l_group", terms)
	}

	// ORDER BY terms.
	if len(stmt.OrderBy) > 0 {
		query = append(query, opt("orderby"))
		var terms []string
		for _, o := range stmt.OrderBy {
			terms = append(terms, o.SQL())
		}
		d.addRule("orderby", []grammar.Element{lit("ORDER BY"), ref("l_order"), star("orderlist")})
		d.addRule("orderlist", []grammar.Element{lit(","), ref("l_order")})
		d.addLexical("l_order", terms)
	}

	// LIMIT / OFFSET, an optional literal.
	if stmt.Limit != nil {
		query = append(query, opt("l_limit"))
		text := fmt.Sprintf("LIMIT %d", *stmt.Limit)
		if stmt.Offset != nil {
			text += fmt.Sprintf(" OFFSET %d", *stmt.Offset)
		}
		d.addLexical("l_limit", []string{text})
	}

	// The start rule ties everything together. It must be registered even
	// though AddRule was already called for the others; New() set the start
	// name to "query".
	startRule := &grammar.Rule{Name: "query", Line: 0}
	startRule.Alternatives = append(startRule.Alternatives, grammar.Alternative{Line: 0, Elements: query})
	d.g.AddRule(startRule)
	return nil
}

// splitConjuncts flattens a boolean expression into its top-level AND terms.
func splitConjuncts(e sqlparser.Expr) []sqlparser.Expr {
	if be, ok := e.(*sqlparser.BinaryExpr); ok && be.Op == "AND" {
		return append(splitConjuncts(be.Left), splitConjuncts(be.Right)...)
	}
	if pe, ok := e.(*sqlparser.ParenExpr); ok {
		inner := splitConjuncts(pe.Expr)
		if len(inner) > 1 {
			return inner
		}
	}
	return []sqlparser.Expr{e}
}

// splitDisjuncts flattens a boolean expression into its top-level OR terms;
// a single-element result means the expression is not a disjunction.
func splitDisjuncts(e sqlparser.Expr) []sqlparser.Expr {
	switch v := e.(type) {
	case *sqlparser.BinaryExpr:
		if v.Op == "OR" {
			return append(splitDisjuncts(v.Left), splitDisjuncts(v.Right)...)
		}
	case *sqlparser.ParenExpr:
		return splitDisjuncts(v.Expr)
	}
	return []sqlparser.Expr{e}
}

// isJoinPredicate reports whether the expression is a simple equality
// between two column references that (judging by their prefixes or
// qualifiers) belong to different tables — the classic join edge of a
// comma-join query.
func isJoinPredicate(e sqlparser.Expr) bool {
	be, ok := e.(*sqlparser.BinaryExpr)
	if !ok || be.Op != "=" {
		return false
	}
	l, lok := be.Left.(*sqlparser.ColumnRef)
	r, rok := be.Right.(*sqlparser.ColumnRef)
	if !lok || !rok {
		return false
	}
	return columnFamily(l) != columnFamily(r)
}

// columnFamily guesses which table a column belongs to: the explicit
// qualifier when present, otherwise the TPC-H style prefix before the first
// underscore (l_, o_, c_, ps_, ...).
func columnFamily(c *sqlparser.ColumnRef) string {
	if c.Table != "" {
		return c.Table
	}
	if i := strings.Index(c.Column, "_"); i > 0 {
		return c.Column[:i]
	}
	return c.Column
}

// Summary derives the grammar for a query and returns its space summary; a
// convenience used by the Table 2 reproduction.
func Summary(sql string, opts Options, enumOpts grammar.EnumerateOptions) (grammar.SpaceSummary, error) {
	g, err := FromSQL(sql, opts)
	if err != nil {
		return grammar.SpaceSummary{}, err
	}
	return g.Space(enumOpts)
}
