package sqlparser

import (
	"fmt"
	"strconv"
	"strings"
)

// Parser is a recursive-descent parser over a token stream.
type Parser struct {
	toks []Token
	pos  int
	// refs counts the column references parsed so far; see ColumnRef.Ord.
	refs int
}

// columnRef builds the next column reference of the statement.
func (p *Parser) columnRef(table, column string) *ColumnRef {
	p.refs++
	return &ColumnRef{Table: table, Column: column, Ord: p.refs - 1}
}

// Parse parses a single SQL SELECT statement (a trailing semicolon is
// allowed) and returns its AST.
func Parse(sql string) (*SelectStatement, error) {
	toks, err := Tokenize(sql)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind == TokSemicolon {
		p.next()
	}
	if p.cur().Kind != TokEOF {
		return nil, p.errorf("unexpected %s after end of statement", p.cur())
	}
	return stmt, nil
}

// ParseExpr parses a single scalar or boolean expression, used by the engine
// to evaluate snippets and by tests.
func ParseExpr(src string) (Expr, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind != TokEOF {
		return nil, p.errorf("unexpected %s after expression", p.cur())
	}
	return e, nil
}

func (p *Parser) cur() Token { return p.toks[p.pos] }
func (p *Parser) peek() Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *Parser) errorf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("line %d col %d: %s", t.Line, t.Col, fmt.Sprintf(format, args...))
}

func (p *Parser) isKeyword(kw string) bool {
	t := p.cur()
	return t.Kind == TokKeyword && t.Text == kw
}

func (p *Parser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, found %s", kw, p.cur())
	}
	return nil
}

func (p *Parser) expect(kind TokenKind) (Token, error) {
	if p.cur().Kind != kind {
		return Token{}, p.errorf("expected %s, found %s", kind, p.cur())
	}
	return p.next(), nil
}

// parseSelect parses SELECT ... [set-op SELECT ...].
func (p *Parser) parseSelect() (*SelectStatement, error) {
	stmt, err := p.parseSelectCore()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.isKeyword("UNION"):
			p.next()
			op = "UNION"
			if p.acceptKeyword("ALL") {
				op = "UNION ALL"
			}
		case p.isKeyword("EXCEPT"):
			p.next()
			op = "EXCEPT"
		case p.isKeyword("INTERSECT"):
			p.next()
			op = "INTERSECT"
		default:
			return stmt, nil
		}
		rhs, err := p.parseSelectCore()
		if err != nil {
			return nil, err
		}
		// Chain on the last statement in the set-op list.
		tail := stmt
		for tail.SetNext != nil {
			tail = tail.SetNext
		}
		tail.SetOp = op
		tail.SetNext = rhs
	}
}

func (p *Parser) parseSelectCore() (*SelectStatement, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStatement{}
	if p.acceptKeyword("DISTINCT") {
		stmt.Distinct = true
	} else {
		p.acceptKeyword("ALL")
	}
	// TOP n (SQL Server dialect) is accepted and translated into LIMIT.
	if p.acceptKeyword("TOP") {
		numTok, err := p.expect(TokNumber)
		if err != nil {
			return nil, err
		}
		n, err := strconv.ParseInt(numTok.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("invalid TOP count %q", numTok.Text)
		}
		stmt.Limit = &n
	}

	// Projection list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Projection = append(stmt.Projection, item)
		if p.cur().Kind == TokComma {
			p.next()
			continue
		}
		break
	}

	if p.acceptKeyword("FROM") {
		from, err := p.parseFromList()
		if err != nil {
			return nil, err
		}
		stmt.From = from
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	if p.isKeyword("GROUP") {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, g)
			if p.cur().Kind == TokComma {
				p.next()
				continue
			}
			break
		}
	}
	if p.acceptKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = h
	}
	if p.isKeyword("ORDER") {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			// NULLS FIRST/LAST is accepted and ignored.
			if p.acceptKeyword("NULLS") {
				if !p.acceptKeyword("FIRST") && !p.acceptKeyword("LAST") {
					return nil, p.errorf("expected FIRST or LAST after NULLS")
				}
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if p.cur().Kind == TokComma {
				p.next()
				continue
			}
			break
		}
	}
	if p.acceptKeyword("LIMIT") {
		numTok, err := p.expect(TokNumber)
		if err != nil {
			return nil, err
		}
		n, err := strconv.ParseInt(numTok.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("invalid LIMIT %q", numTok.Text)
		}
		stmt.Limit = &n
	}
	if p.acceptKeyword("OFFSET") {
		numTok, err := p.expect(TokNumber)
		if err != nil {
			return nil, err
		}
		n, err := strconv.ParseInt(numTok.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("invalid OFFSET %q", numTok.Text)
		}
		stmt.Offset = &n
	}
	return stmt, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	// `*`
	if p.cur().Kind == TokOperator && p.cur().Text == "*" {
		p.next()
		return SelectItem{Star: true}, nil
	}
	// `t.*`
	if p.cur().Kind == TokIdent && p.peek().Kind == TokDot {
		// Look two tokens ahead for '*'.
		if p.pos+2 < len(p.toks) && p.toks[p.pos+2].Kind == TokOperator && p.toks[p.pos+2].Text == "*" {
			qual := p.next().Text
			p.next() // dot
			p.next() // star
			return SelectItem{Star: true, Qualifier: qual}, nil
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.parseAliasName()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.cur().Kind == TokIdent {
		item.Alias = p.next().Text
	}
	return item, nil
}

func (p *Parser) parseAliasName() (string, error) {
	t := p.cur()
	if t.Kind == TokIdent {
		p.next()
		return t.Text, nil
	}
	// Allow non-reserved-looking keywords as aliases is intentionally not
	// supported; aliases must be plain identifiers.
	return "", p.errorf("expected alias name, found %s", t)
}

func (p *Parser) parseFromList() ([]TableExpr, error) {
	var list []TableExpr
	for {
		t, err := p.parseTableExpr()
		if err != nil {
			return nil, err
		}
		list = append(list, t)
		if p.cur().Kind == TokComma {
			p.next()
			continue
		}
		return list, nil
	}
}

func (p *Parser) parseTableExpr() (TableExpr, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		kind := ""
		switch {
		case p.isKeyword("JOIN"):
			kind = "INNER"
			p.next()
		case p.isKeyword("INNER"):
			p.next()
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			kind = "INNER"
		case p.isKeyword("LEFT"), p.isKeyword("RIGHT"), p.isKeyword("FULL"):
			kind = p.next().Text
			p.acceptKeyword("OUTER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		case p.isKeyword("CROSS"):
			p.next()
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			kind = "CROSS"
		default:
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		join := &JoinExpr{Kind: kind, Left: left, Right: right}
		if kind != "CROSS" {
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			join.On = on
		}
		left = join
	}
}

func (p *Parser) parseTablePrimary() (TableExpr, error) {
	if p.cur().Kind == TokLParen {
		p.next()
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		d := &DerivedTable{Select: sub}
		if p.acceptKeyword("AS") {
			alias, err := p.parseAliasName()
			if err != nil {
				return nil, err
			}
			d.Alias = alias
		} else if p.cur().Kind == TokIdent {
			d.Alias = p.next().Text
		}
		return d, nil
	}
	nameTok, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	t := &TableName{Name: nameTok.Text}
	if p.acceptKeyword("AS") {
		alias, err := p.parseAliasName()
		if err != nil {
			return nil, err
		}
		t.Alias = alias
	} else if p.cur().Kind == TokIdent {
		t.Alias = p.next().Text
	}
	return t, nil
}

// Expression parsing with classic precedence climbing:
// OR < AND < NOT < comparison/predicates < additive < multiplicative < unary.

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("OR") {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("AND") {
		p.next()
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.isKeyword("NOT") {
		// NOT EXISTS (...) is kept as an ExistsExpr with Not set, the
		// canonical form used by derive and the engine.
		if p.peek().Kind == TokKeyword && p.peek().Text == "EXISTS" {
			p.next()
			p.next()
			if _, err := p.expect(TokLParen); err != nil {
				return nil, err
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			return &ExistsExpr{Not: true, Subquery: sub}, nil
		}
		p.next()
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", Expr: e}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (Expr, error) {
	if p.isKeyword("EXISTS") {
		p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return &ExistsExpr{Subquery: sub}, nil
	}
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// Postfix predicates: IS [NOT] NULL, [NOT] BETWEEN, [NOT] IN, [NOT] LIKE.
	for {
		switch {
		case p.isKeyword("IS"):
			p.next()
			not := p.acceptKeyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			left = &IsNullExpr{Not: not, Expr: left}
		case p.isKeyword("NOT") && (p.peek().Kind == TokKeyword && (p.peek().Text == "BETWEEN" || p.peek().Text == "IN" || p.peek().Text == "LIKE" || p.peek().Text == "EXISTS")):
			p.next()
			switch {
			case p.isKeyword("BETWEEN"):
				var err error
				left, err = p.parseBetween(left, true)
				if err != nil {
					return nil, err
				}
			case p.isKeyword("IN"):
				var err error
				left, err = p.parseIn(left, true)
				if err != nil {
					return nil, err
				}
			case p.isKeyword("LIKE"):
				p.next()
				pat, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				left = &BinaryExpr{Op: "NOT LIKE", Left: left, Right: pat}
			case p.isKeyword("EXISTS"):
				p.next()
				if _, err := p.expect(TokLParen); err != nil {
					return nil, err
				}
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(TokRParen); err != nil {
					return nil, err
				}
				left = &ExistsExpr{Not: true, Subquery: sub}
			}
		case p.isKeyword("BETWEEN"):
			var err error
			left, err = p.parseBetween(left, false)
			if err != nil {
				return nil, err
			}
		case p.isKeyword("IN"):
			var err error
			left, err = p.parseIn(left, false)
			if err != nil {
				return nil, err
			}
		case p.isKeyword("LIKE"):
			p.next()
			pat, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: "LIKE", Left: left, Right: pat}
		case p.cur().Kind == TokOperator && isComparisonOp(p.cur().Text):
			op := p.next().Text
			if op == "!=" {
				op = "<>"
			}
			// ANY/SOME/ALL quantified comparisons degrade to the sub-query
			// itself: the engine treats them as scalar comparisons which is
			// sufficient for the workloads covered.
			if p.isKeyword("ANY") || p.isKeyword("SOME") || p.isKeyword("ALL") {
				p.next()
			}
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: op, Left: left, Right: right}
		default:
			return left, nil
		}
	}
}

func isComparisonOp(op string) bool {
	switch op {
	case "=", "<>", "!=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func (p *Parser) parseBetween(left Expr, not bool) (Expr, error) {
	if err := p.expectKeyword("BETWEEN"); err != nil {
		return nil, err
	}
	lo, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AND"); err != nil {
		return nil, err
	}
	hi, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return &BetweenExpr{Not: not, Expr: left, Lo: lo, Hi: hi}, nil
}

func (p *Parser) parseIn(left Expr, not bool) (Expr, error) {
	if err := p.expectKeyword("IN"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	in := &InExpr{Not: not, Expr: left}
	if p.isKeyword("SELECT") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		in.Subquery = sub
	} else {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			in.List = append(in.List, e)
			if p.cur().Kind == TokComma {
				p.next()
				continue
			}
			break
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return in, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == TokOperator && (p.cur().Text == "+" || p.cur().Text == "-" || p.cur().Text == "||") {
		op := p.next().Text
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == TokOperator && (p.cur().Text == "*" || p.cur().Text == "/" || p.cur().Text == "%") {
		op := p.next().Text
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.cur().Kind == TokOperator && (p.cur().Text == "-" || p.cur().Text == "+") {
		op := p.next().Text
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: op, Expr: e}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokNumber:
		p.next()
		return &NumberLit{Value: t.Text}, nil
	case TokString:
		p.next()
		return &StringLit{Value: t.Text}, nil
	case TokParam:
		p.next()
		return &ParamRef{Name: t.Text}, nil
	case TokLParen:
		p.next()
		if p.isKeyword("SELECT") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			return &SubqueryExpr{Select: sub}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return &ParenExpr{Expr: e}, nil
	case TokKeyword:
		switch t.Text {
		case "NULL":
			p.next()
			return &NullLit{}, nil
		case "TRUE":
			p.next()
			return &BoolLit{Value: true}, nil
		case "FALSE":
			p.next()
			return &BoolLit{Value: false}, nil
		case "DATE":
			p.next()
			s, err := p.expect(TokString)
			if err != nil {
				return nil, err
			}
			return &DateLit{Value: s.Text}, nil
		case "INTERVAL":
			p.next()
			v, err := p.expect(TokString)
			if err != nil {
				return nil, err
			}
			unitTok := p.cur()
			if unitTok.Kind != TokKeyword || (unitTok.Text != "YEAR" && unitTok.Text != "MONTH" && unitTok.Text != "DAY") {
				return nil, p.errorf("expected YEAR, MONTH or DAY after INTERVAL, found %s", unitTok)
			}
			p.next()
			return &IntervalLit{Value: v.Text, Unit: unitTok.Text}, nil
		case "CASE":
			return p.parseCase()
		case "EXTRACT":
			return p.parseExtract()
		case "SUBSTRING":
			return p.parseSubstring()
		case "CAST":
			return p.parseCast()
		default:
			return nil, p.errorf("unexpected keyword %s in expression", t.Text)
		}
	case TokIdent:
		// Function call or column reference.
		if p.peek().Kind == TokLParen {
			return p.parseFuncCall()
		}
		p.next()
		if p.cur().Kind == TokDot {
			p.next()
			colTok, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			return p.columnRef(t.Text, colTok.Text), nil
		}
		return p.columnRef("", t.Text), nil
	default:
		return nil, p.errorf("unexpected %s in expression", t)
	}
}

func (p *Parser) parseFuncCall() (Expr, error) {
	nameTok := p.next()
	name := strings.ToLower(nameTok.Text)
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	f := &FuncCall{Name: name}
	if p.cur().Kind == TokOperator && p.cur().Text == "*" {
		p.next()
		f.Star = true
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return f, nil
	}
	if p.acceptKeyword("DISTINCT") {
		f.Distinct = true
	}
	if p.cur().Kind != TokRParen {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			f.Args = append(f.Args, a)
			if p.cur().Kind == TokComma {
				p.next()
				continue
			}
			break
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return f, nil
}

func (p *Parser) parseCase() (Expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	c := &CaseExpr{}
	if !p.isKeyword("WHEN") {
		operand, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = operand
	}
	for p.isKeyword("WHEN") {
		p.next()
		when, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, CaseWhen{When: when, Then: then})
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	if len(c.Whens) == 0 {
		return nil, p.errorf("CASE expression requires at least one WHEN arm")
	}
	return c, nil
}

func (p *Parser) parseExtract() (Expr, error) {
	if err := p.expectKeyword("EXTRACT"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	unitTok := p.cur()
	if unitTok.Kind != TokKeyword || (unitTok.Text != "YEAR" && unitTok.Text != "MONTH" && unitTok.Text != "DAY") {
		return nil, p.errorf("expected YEAR, MONTH or DAY in EXTRACT, found %s", unitTok)
	}
	p.next()
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return &ExtractExpr{Unit: unitTok.Text, From: from}, nil
}

func (p *Parser) parseSubstring() (Expr, error) {
	if err := p.expectKeyword("SUBSTRING"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	s := &SubstringExpr{Expr: e}
	if p.acceptKeyword("FROM") {
		start, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Start = start
		if p.acceptKeyword("FOR") {
			length, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.Length = length
		}
	} else if p.cur().Kind == TokComma {
		// substring(x, start [, length]) function-call style.
		p.next()
		start, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Start = start
		if p.cur().Kind == TokComma {
			p.next()
			length, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.Length = length
		}
	} else {
		return nil, p.errorf("expected FROM or ',' in SUBSTRING")
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *Parser) parseCast() (Expr, error) {
	if err := p.expectKeyword("CAST"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	// The type name may be an identifier (integer, varchar) or the DATE
	// keyword, optionally with a parenthesised precision which is ignored.
	var typ string
	switch p.cur().Kind {
	case TokIdent:
		typ = strings.ToLower(p.next().Text)
	case TokKeyword:
		typ = strings.ToLower(p.next().Text)
	default:
		return nil, p.errorf("expected type name in CAST, found %s", p.cur())
	}
	if p.cur().Kind == TokLParen {
		p.next()
		if _, err := p.expect(TokNumber); err != nil {
			return nil, err
		}
		if p.cur().Kind == TokComma {
			p.next()
			if _, err := p.expect(TokNumber); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return &CastExpr{Expr: e, Type: typ}, nil
}
