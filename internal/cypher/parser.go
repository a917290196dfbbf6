package cypher

import (
	"strconv"
	"strings"
)

type parser struct {
	toks  []token
	pos   int
	src   string
	keys  []string       // PropAccess keys by slot - 1
	slots map[string]int // key → slot
}

// Parse parses a Cypher query into its AST.
func Parse(src string) (*Query, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if p.atAsOf() {
		p.pos += 2 // AS OF
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		q.AsOf = e
	}
	if !p.at(tokEOF) {
		return nil, errorf(p.cur(), "unexpected %q after query", p.cur().text)
	}
	q.keys = p.keys
	return q, nil
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{}
	for !p.at(tokEOF) && !p.atKeyword("UNION") && !p.atAsOf() {
		c, err := p.parseClause()
		if err != nil {
			return nil, err
		}
		q.Clauses = append(q.Clauses, c)
	}
	if len(q.Clauses) == 0 {
		return nil, &Error{Msg: "empty query"}
	}
	if p.acceptKeyword("UNION") {
		q.UnionAll = p.acceptKeyword("ALL")
		next, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		q.Next = next
	}
	return q, nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(k tokenKind) bool { return p.cur().kind == k }

func (p *parser) atKeyword(kw string) bool {
	t := p.cur()
	return t.kind == tokKeyword && strings.EqualFold(t.text, kw)
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.atKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

// peekKeyword reports whether the token d positions past the current one is
// the given keyword.
func (p *parser) peekKeyword(d int, kw string) bool {
	i := p.pos + d
	if i >= len(p.toks) {
		return false
	}
	t := p.toks[i]
	return t.kind == tokKeyword && strings.EqualFold(t.text, kw)
}

// atAsOf reports whether the parser sits on the `AS OF` temporal suffix.
// It is checked wherever a bare AS alias is parsed, so `RETURN x AS OF 3`
// reads as the suffix rather than an alias named "of" (which is therefore
// not expressible — an acceptable trade for the temporal surface).
func (p *parser) atAsOf() bool {
	return p.atKeyword("AS") && p.peekKeyword(1, "OF")
}

func (p *parser) accept(k tokenKind) bool {
	if p.at(k) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(k tokenKind) (token, error) {
	if p.at(k) {
		return p.next(), nil
	}
	return token{}, errorf(p.cur(), "expected %v, found %v %q", k, p.cur().kind, p.cur().text)
}

func (p *parser) expectKeyword(kw string) error {
	if p.acceptKeyword(kw) {
		return nil
	}
	return errorf(p.cur(), "expected %s, found %q", kw, p.cur().text)
}

// name accepts an identifier or a non-reserved-looking keyword as a name
// (labels and properties may collide with keywords, e.g. a property called
// `count`).
func (p *parser) name() (string, error) {
	t := p.cur()
	switch t.kind {
	case tokIdent:
		p.pos++
		return t.text, nil
	case tokKeyword:
		p.pos++
		return t.text, nil
	}
	return "", errorf(t, "expected name, found %v %q", t.kind, t.text)
}

// --- clauses ---

func (p *parser) parseClause() (Clause, error) {
	t := p.cur()
	switch {
	case p.atKeyword("OPTIONAL"):
		p.pos++
		if err := p.expectKeyword("MATCH"); err != nil {
			return nil, err
		}
		return p.parseMatch(true)
	case p.acceptKeyword("MATCH"):
		return p.parseMatch(false)
	case p.acceptKeyword("WITH"):
		return p.parseWith()
	case p.acceptKeyword("RETURN"):
		return p.parseReturn()
	case p.acceptKeyword("UNWIND"):
		return p.parseUnwind()
	case p.acceptKeyword("CREATE"):
		return p.parseCreate()
	case p.acceptKeyword("MERGE"):
		return p.parseMerge()
	case p.acceptKeyword("SET"):
		items, err := p.parseSetItems()
		if err != nil {
			return nil, err
		}
		return &SetClause{Items: items}, nil
	case p.acceptKeyword("DETACH"):
		if err := p.expectKeyword("DELETE"); err != nil {
			return nil, err
		}
		return p.parseDelete(true)
	case p.acceptKeyword("DELETE"):
		return p.parseDelete(false)
	case p.acceptKeyword("REMOVE"):
		return p.parseRemove()
	case p.acceptKeyword("CALL"):
		return p.parseCall()
	}
	return nil, errorf(t, "expected clause keyword, found %q", t.text)
}

// parseCall parses CALL name.name({args}) [YIELD col [AS alias], ...
// [WHERE expr]].
func (p *parser) parseCall() (Clause, error) {
	part, err := p.name()
	if err != nil {
		return nil, err
	}
	parts := []string{part}
	for p.accept(tokDot) {
		if part, err = p.name(); err != nil {
			return nil, err
		}
		parts = append(parts, part)
	}
	c := &CallClause{Proc: strings.ToLower(strings.Join(parts, "."))}
	if p.accept(tokLParen) {
		if !p.at(tokRParen) {
			if c.Args, err = p.parseExpr(); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("YIELD") {
		for {
			col, err := p.name()
			if err != nil {
				return nil, err
			}
			it := YieldItem{Col: strings.ToLower(col)}
			if !p.atAsOf() && p.acceptKeyword("AS") {
				if it.Alias, err = p.name(); err != nil {
					return nil, err
				}
			}
			c.Yield = append(c.Yield, it)
			if !p.accept(tokComma) {
				break
			}
		}
		if p.acceptKeyword("WHERE") {
			if c.Where, err = p.parseExpr(); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

func (p *parser) parseMatch(optional bool) (Clause, error) {
	pats, err := p.parsePatternList()
	if err != nil {
		return nil, err
	}
	m := &MatchClause{Optional: optional, Patterns: pats}
	if p.acceptKeyword("WHERE") {
		if m.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (p *parser) parseWith() (Clause, error) {
	w := &WithClause{}
	w.Distinct = p.acceptKeyword("DISTINCT")
	if p.accept(tokStar) {
		w.Star = true
		if p.accept(tokComma) {
			items, err := p.parseReturnItems()
			if err != nil {
				return nil, err
			}
			w.Items = items
		}
	} else {
		items, err := p.parseReturnItems()
		if err != nil {
			return nil, err
		}
		w.Items = items
	}
	var err error
	if w.OrderBy, err = p.parseOrderBy(); err != nil {
		return nil, err
	}
	if w.Skip, w.Limit, err = p.parseSkipLimit(); err != nil {
		return nil, err
	}
	if p.acceptKeyword("WHERE") {
		if w.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (p *parser) parseReturn() (Clause, error) {
	r := &ReturnClause{}
	r.Distinct = p.acceptKeyword("DISTINCT")
	if p.accept(tokStar) {
		r.Star = true
		if p.accept(tokComma) {
			items, err := p.parseReturnItems()
			if err != nil {
				return nil, err
			}
			r.Items = items
		}
	} else {
		items, err := p.parseReturnItems()
		if err != nil {
			return nil, err
		}
		r.Items = items
	}
	var err error
	if r.OrderBy, err = p.parseOrderBy(); err != nil {
		return nil, err
	}
	if r.Skip, r.Limit, err = p.parseSkipLimit(); err != nil {
		return nil, err
	}
	return r, nil
}

func (p *parser) parseOrderBy() ([]SortItem, error) {
	if !p.acceptKeyword("ORDER") {
		return nil, nil
	}
	if err := p.expectKeyword("BY"); err != nil {
		return nil, err
	}
	var items []SortItem
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		it := SortItem{Expr: e}
		switch {
		case p.acceptKeyword("DESC"), p.acceptKeyword("DESCENDING"):
			it.Desc = true
		case p.acceptKeyword("ASC"), p.acceptKeyword("ASCENDING"):
		}
		items = append(items, it)
		if !p.accept(tokComma) {
			return items, nil
		}
	}
}

func (p *parser) parseSkipLimit() (skip, limit Expr, err error) {
	if p.acceptKeyword("SKIP") {
		if skip, err = p.parseExpr(); err != nil {
			return nil, nil, err
		}
	}
	if p.acceptKeyword("LIMIT") {
		if limit, err = p.parseExpr(); err != nil {
			return nil, nil, err
		}
	}
	return skip, limit, nil
}

func (p *parser) parseReturnItems() ([]ReturnItem, error) {
	var items []ReturnItem
	for {
		start := p.cur().pos
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		end := p.cur().pos
		item := ReturnItem{Expr: e, Text: strings.TrimSpace(p.src[start:end])}
		if !p.atAsOf() && p.acceptKeyword("AS") {
			if item.Alias, err = p.name(); err != nil {
				return nil, err
			}
		}
		items = append(items, item)
		if !p.accept(tokComma) {
			return items, nil
		}
	}
}

func (p *parser) parseUnwind() (Clause, error) {
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	alias, err := p.name()
	if err != nil {
		return nil, err
	}
	return &UnwindClause{Expr: e, Alias: alias}, nil
}

func (p *parser) parseCreate() (Clause, error) {
	pats, err := p.parsePatternList()
	if err != nil {
		return nil, err
	}
	return &CreateClause{Patterns: pats}, nil
}

func (p *parser) parseMerge() (Clause, error) {
	pat, err := p.parsePatternPath()
	if err != nil {
		return nil, err
	}
	m := &MergeClause{Pattern: pat}
	for p.atKeyword("ON") {
		p.pos++
		switch {
		case p.acceptKeyword("CREATE"):
			if err := p.expectKeyword("SET"); err != nil {
				return nil, err
			}
			items, err := p.parseSetItems()
			if err != nil {
				return nil, err
			}
			m.OnCreateSet = append(m.OnCreateSet, items...)
		case p.acceptKeyword("MATCH"):
			if err := p.expectKeyword("SET"); err != nil {
				return nil, err
			}
			items, err := p.parseSetItems()
			if err != nil {
				return nil, err
			}
			m.OnMatchSet = append(m.OnMatchSet, items...)
		default:
			return nil, errorf(p.cur(), "expected CREATE or MATCH after ON")
		}
	}
	return m, nil
}

func (p *parser) parseSetItems() ([]SetItem, error) {
	var items []SetItem
	for {
		v, err := p.name()
		if err != nil {
			return nil, err
		}
		switch {
		case p.accept(tokDot):
			key, err := p.name()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokEq); err != nil {
				return nil, err
			}
			val, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			items = append(items, SetItem{Var: v, Key: key, Value: val})
		case p.accept(tokColon):
			label, err := p.name()
			if err != nil {
				return nil, err
			}
			items = append(items, SetItem{Var: v, Label: label})
		case p.at(tokPlus) && p.toks[p.pos+1].kind == tokEq:
			p.pos += 2
			val, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			items = append(items, SetItem{Var: v, MapMerge: true, Value: val})
		default:
			return nil, errorf(p.cur(), "expected '.', ':' or '+=' in SET item")
		}
		if !p.accept(tokComma) {
			return items, nil
		}
	}
}

func (p *parser) parseRemove() (Clause, error) {
	var items []SetItem
	for {
		v, err := p.name()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokDot); err != nil {
			return nil, err
		}
		key, err := p.name()
		if err != nil {
			return nil, err
		}
		items = append(items, SetItem{Var: v, Key: key})
		if !p.accept(tokComma) {
			return &RemoveClause{Items: items}, nil
		}
	}
}

func (p *parser) parseDelete(detach bool) (Clause, error) {
	d := &DeleteClause{Detach: detach}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Exprs = append(d.Exprs, e)
		if !p.accept(tokComma) {
			return d, nil
		}
	}
}

// --- patterns ---

func (p *parser) parsePatternList() ([]PatternPath, error) {
	var pats []PatternPath
	for {
		pat, err := p.parsePatternPath()
		if err != nil {
			return nil, err
		}
		pats = append(pats, pat)
		if !p.accept(tokComma) {
			return pats, nil
		}
	}
}

func (p *parser) parsePatternPath() (PatternPath, error) {
	var path PatternPath
	// Optional path variable: p = (...)
	if p.at(tokIdent) && p.toks[p.pos+1].kind == tokEq {
		path.Var = p.next().text
		p.pos++ // '='
	}
	// shortestPath((a)-[*..n]-(b))
	if p.at(tokIdent) && strings.EqualFold(p.cur().text, "shortestPath") && p.toks[p.pos+1].kind == tokLParen {
		p.pos += 2 // name + '('
		inner, err := p.parseShortestInner()
		if err != nil {
			return path, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return path, err
		}
		inner.Var = path.Var
		inner.Shortest = true
		return inner, nil
	}
	n, err := p.parseNodePattern()
	if err != nil {
		return path, err
	}
	path.Nodes = append(path.Nodes, n)
	for p.at(tokDash) || p.at(tokLt) {
		r, err := p.parseRelPattern()
		if err != nil {
			return path, err
		}
		n, err := p.parseNodePattern()
		if err != nil {
			return path, err
		}
		path.Rels = append(path.Rels, r)
		path.Nodes = append(path.Nodes, n)
	}
	return path, nil
}

// parseShortestInner parses the single-hop pattern inside
// shortestPath(...): node, relationship, node.
func (p *parser) parseShortestInner() (PatternPath, error) {
	var path PatternPath
	n1, err := p.parseNodePattern()
	if err != nil {
		return path, err
	}
	r, err := p.parseRelPattern()
	if err != nil {
		return path, err
	}
	n2, err := p.parseNodePattern()
	if err != nil {
		return path, err
	}
	if !r.VarLen {
		// Neo4j requires a variable-length relationship; a fixed single
		// hop degenerates to *1..1.
		r.VarLen = true
		r.MinHops = 1
		r.MaxHops = 1
	}
	path.Nodes = []NodePattern{n1, n2}
	path.Rels = []RelPattern{r}
	return path, nil
}

func (p *parser) parseNodePattern() (NodePattern, error) {
	var n NodePattern
	if _, err := p.expect(tokLParen); err != nil {
		return n, err
	}
	if p.at(tokIdent) {
		n.Var = p.next().text
	}
	for p.accept(tokColon) {
		l, err := p.name()
		if err != nil {
			return n, err
		}
		n.Labels = append(n.Labels, l)
	}
	if p.at(tokLBrace) {
		props, err := p.parsePropertyMap()
		if err != nil {
			return n, err
		}
		n.Props = props
	}
	if _, err := p.expect(tokRParen); err != nil {
		return n, err
	}
	return n, nil
}

func (p *parser) parseRelPattern() (RelPattern, error) {
	var r RelPattern
	// Leading direction: '<-' lexes as tokLt tokDash.
	leftArrow := false
	if p.accept(tokLt) {
		leftArrow = true
	}
	if _, err := p.expect(tokDash); err != nil {
		return r, err
	}
	if p.accept(tokLBracket) {
		if p.at(tokIdent) {
			r.Var = p.next().text
		}
		if p.accept(tokColon) {
			for {
				t, err := p.name()
				if err != nil {
					return r, err
				}
				r.Types = append(r.Types, t)
				if !p.accept(tokPipe) {
					break
				}
				p.accept(tokColon) // tolerate :A|:B spelling
			}
		}
		if p.accept(tokStar) {
			r.VarLen = true
			r.MinHops = 1
			r.MaxHops = -1
			if p.at(tokInt) {
				v, _ := strconv.Atoi(p.next().text)
				r.MinHops = v
				r.MaxHops = v
			}
			if p.accept(tokDotDot) {
				r.MaxHops = -1
				if p.at(tokInt) {
					v, _ := strconv.Atoi(p.next().text)
					r.MaxHops = v
				}
			}
		}
		if p.at(tokLBrace) {
			props, err := p.parsePropertyMap()
			if err != nil {
				return r, err
			}
			r.Props = props
		}
		if _, err := p.expect(tokRBracket); err != nil {
			return r, err
		}
	}
	// Closing side: '-' (possibly doubled for bracketless '--'), '->'
	// (a single tokArrowR), or '-' followed by '>'.
	rightArrow := false
	switch {
	case p.accept(tokArrowR):
		rightArrow = true
	case p.accept(tokDash):
		switch {
		case p.accept(tokGt):
			rightArrow = true
		case p.accept(tokArrowR):
			// bracketless '-->': first dash above, then '->'.
			rightArrow = true
		default:
			p.accept(tokDash) // bracketless '--'
		}
	default:
		return r, errorf(p.cur(), "malformed relationship pattern")
	}
	switch {
	case leftArrow && rightArrow:
		return r, errorf(p.cur(), "relationship pattern cannot point both ways")
	case leftArrow:
		r.Dir = DirLeft
	case rightArrow:
		r.Dir = DirRight
	default:
		r.Dir = DirAny
	}
	return r, nil
}

// Note: '-->' lexes as tokDash tokDash tokGt? No: '-' then '->' lexes as
// tokDash tokArrowR. parseRelPattern handles the bracketless forms by
// accepting an optional second dash then an optional '>' — but '->' is a
// single token, so also accept tokArrowR as "dash plus arrow".

func (p *parser) parsePropertyMap() (map[string]Expr, error) {
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	props := map[string]Expr{}
	if p.accept(tokRBrace) {
		return props, nil
	}
	for {
		key, err := p.name()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokColon); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		props[key] = val
		if !p.accept(tokComma) {
			break
		}
	}
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, err
	}
	return props, nil
}

// --- expressions (precedence climbing) ---

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseXor()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseXor()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpOr, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseXor() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("XOR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpXor, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpAnd, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Not: true, X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch {
		case p.accept(tokEq):
			op = OpEq
		case p.accept(tokNeq):
			op = OpNeq
		case p.accept(tokLt):
			op = OpLt
		case p.accept(tokLe):
			op = OpLe
		case p.accept(tokGt):
			op = OpGt
		case p.accept(tokGe):
			op = OpGe
		case p.atKeyword("IN"):
			p.pos++
			op = OpIn
		case p.atKeyword("STARTS"):
			p.pos++
			if err := p.expectKeyword("WITH"); err != nil {
				return nil, err
			}
			op = OpStartsWith
		case p.atKeyword("ENDS"):
			p.pos++
			if err := p.expectKeyword("WITH"); err != nil {
				return nil, err
			}
			op = OpEndsWith
		case p.atKeyword("CONTAINS"):
			p.pos++
			op = OpContains
		case p.atKeyword("IS"):
			p.pos++
			not := p.acceptKeyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			left = &IsNullExpr{X: left, Not: not}
			continue
		default:
			return left, nil
		}
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch {
		case p.accept(tokPlus):
			op = OpAdd
		case p.accept(tokDash):
			op = OpSub
		default:
			return left, nil
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parsePower()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch {
		case p.accept(tokStar):
			op = OpMul
		case p.accept(tokSlash):
			op = OpDiv
		case p.accept(tokPercent):
			op = OpMod
		default:
			return left, nil
		}
		right, err := p.parsePower()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parsePower() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	if p.accept(tokCaret) {
		right, err := p.parsePower() // right associative
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: OpPow, Left: left, Right: right}, nil
	}
	return left, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tokDash) {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Not: false, X: x}, nil
	}
	p.accept(tokPlus) // unary plus is a no-op
	return p.parsePostfix()
}

// keySlot returns key's slot in the statement's key table, adding it on
// first sight.
func (p *parser) keySlot(key string) int {
	if slot, ok := p.slots[key]; ok {
		return slot
	}
	if p.slots == nil {
		p.slots = make(map[string]int)
	}
	p.keys = append(p.keys, key)
	p.slots[key] = len(p.keys)
	return len(p.keys)
}

func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokDot):
			key, err := p.name()
			if err != nil {
				return nil, err
			}
			e = &PropAccess{Target: e, Key: key, slot: p.keySlot(key)}
		case p.at(tokLBracket):
			p.pos++
			idx := &IndexExpr{Target: e}
			if p.accept(tokDotDot) {
				idx.IsSlice = true
				if !p.at(tokRBracket) {
					if idx.SliceHi, err = p.parseExpr(); err != nil {
						return nil, err
					}
				}
			} else {
				first, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if p.accept(tokDotDot) {
					idx.IsSlice = true
					idx.SliceLo = first
					if !p.at(tokRBracket) {
						if idx.SliceHi, err = p.parseExpr(); err != nil {
							return nil, err
						}
					}
				} else {
					idx.Index = first
				}
			}
			if _, err := p.expect(tokRBracket); err != nil {
				return nil, err
			}
			e = idx
		default:
			return e, nil
		}
	}
}

func (p *parser) parseAtom() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokInt:
		p.pos++
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, errorf(t, "invalid integer literal %q", t.text)
		}
		return &Literal{Kind: LitInt, I: i}, nil
	case tokFloat:
		p.pos++
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, errorf(t, "invalid float literal %q", t.text)
		}
		return &Literal{Kind: LitFloat, F: f}, nil
	case tokString:
		p.pos++
		return &Literal{Kind: LitString, S: t.text}, nil
	case tokParam:
		p.pos++
		return &Param{Name: t.text}, nil
	case tokLParen:
		// Ambiguity: '(' opens either a parenthesized expression or a
		// pattern predicate like (a)-[:X]-(b), which evaluates to "a
		// match exists" (sugar for EXISTS { ... }). Try the pattern
		// first; a path without relationships is not a predicate, so
		// roll back and parse an expression.
		if pat, ok := p.tryPatternPredicate(); ok {
			return &ExistsExpr{Patterns: []PatternPath{pat}}, nil
		}
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokLBracket:
		return p.parseListAtom()
	case tokLBrace:
		props, err := p.parsePropertyMap()
		if err != nil {
			return nil, err
		}
		m := &MapExpr{}
		for k := range props {
			m.Keys = append(m.Keys, k)
		}
		// Deterministic order for stable results.
		sortStrings(m.Keys)
		for _, k := range m.Keys {
			m.Exprs = append(m.Exprs, props[k])
		}
		return m, nil
	case tokKeyword:
		switch strings.ToUpper(t.text) {
		case "NULL":
			p.pos++
			return &Literal{Kind: LitNull}, nil
		case "TRUE":
			p.pos++
			return &Literal{Kind: LitBool, B: true}, nil
		case "FALSE":
			p.pos++
			return &Literal{Kind: LitBool, B: false}, nil
		case "CASE":
			return p.parseCase()
		case "EXISTS":
			return p.parseExistsOrCount(true)
		case "COUNT":
			// count(...) aggregate or COUNT { pattern } subquery.
			if p.toks[p.pos+1].kind == tokLBrace {
				return p.parseExistsOrCount(false)
			}
			return p.parseFnCall()
		default:
			// Keywords usable as function names (none currently); treat
			// as error.
			return nil, errorf(t, "unexpected keyword %q in expression", t.text)
		}
	case tokIdent:
		if p.toks[p.pos+1].kind == tokLParen {
			return p.parseFnCall()
		}
		p.pos++
		return &Variable{Name: t.text}, nil
	}
	return nil, errorf(t, "unexpected %v %q in expression", t.kind, t.text)
}

// tryPatternPredicate attempts to parse a relationship pattern starting at
// the current '(' token, restoring the position on failure or when the
// parse yields a bare parenthesized node (no relationships).
func (p *parser) tryPatternPredicate() (PatternPath, bool) {
	save := p.pos
	pat, err := p.parsePatternPath()
	if err != nil || len(pat.Rels) == 0 {
		p.pos = save
		return PatternPath{}, false
	}
	return pat, true
}

func (p *parser) parseListAtom() (Expr, error) {
	if _, err := p.expect(tokLBracket); err != nil {
		return nil, err
	}
	// List comprehension: [x IN expr WHERE ... | ...]
	if p.at(tokIdent) && p.toks[p.pos+1].kind == tokKeyword && strings.EqualFold(p.toks[p.pos+1].text, "IN") {
		v := p.next().text
		p.pos++ // IN
		src, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		lc := &ListComprehension{Var: v, Source: src}
		if p.acceptKeyword("WHERE") {
			if lc.Where, err = p.parseExpr(); err != nil {
				return nil, err
			}
		}
		if p.accept(tokPipe) {
			if lc.Proj, err = p.parseExpr(); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(tokRBracket); err != nil {
			return nil, err
		}
		return lc, nil
	}
	le := &ListExpr{}
	if p.accept(tokRBracket) {
		return le, nil
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		le.Elems = append(le.Elems, e)
		if !p.accept(tokComma) {
			break
		}
	}
	if _, err := p.expect(tokRBracket); err != nil {
		return nil, err
	}
	return le, nil
}

func (p *parser) parseCase() (Expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	ce := &CaseExpr{}
	if !p.atKeyword("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Operand = op
	}
	for p.acceptKeyword("WHEN") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		th, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, w)
		ce.Thens = append(ce.Thens, th)
	}
	if len(ce.Whens) == 0 {
		return nil, errorf(p.cur(), "CASE requires at least one WHEN")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return ce, nil
}

// parseExistsOrCount parses EXISTS {...}, EXISTS (...), or COUNT {...}.
func (p *parser) parseExistsOrCount(isExists bool) (Expr, error) {
	p.pos++ // EXISTS / COUNT
	if isExists && p.at(tokLParen) {
		// Legacy exists(expr) property-check form.
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return &FnCall{Name: "exists", Args: []Expr{e}}, nil
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	// Optional leading MATCH keyword inside the subquery.
	p.acceptKeyword("MATCH")
	pats, err := p.parsePatternList()
	if err != nil {
		return nil, err
	}
	var where Expr
	if p.acceptKeyword("WHERE") {
		if where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, err
	}
	if isExists {
		return &ExistsExpr{Patterns: pats, Where: where}, nil
	}
	return &CountExpr{Patterns: pats, Where: where}, nil
}

func (p *parser) parseFnCall() (Expr, error) {
	name := strings.ToLower(p.next().text)
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	fc := &FnCall{Name: name}
	if p.accept(tokStar) {
		fc.Star = true
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return fc, nil
	}
	fc.Distinct = p.acceptKeyword("DISTINCT")
	if p.accept(tokRParen) {
		return fc, nil
	}
	for {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fc.Args = append(fc.Args, a)
		if !p.accept(tokComma) {
			break
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return fc, nil
}

func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}
