package script

import "fmt"

// parser is a recursive-descent parser over the token slice.
type parser struct {
	toks  []token
	pos   int
	depth int
}

// maxNesting bounds the parser's recursion (statements, assignments and
// unary operators nested in one another), so a hostile source cannot
// overflow the stack of the process compiling it.
const maxNesting = 1000

// nest enters one level of recursion; the caller defers p.depth--.
func (p *parser) nest() error {
	p.depth++
	if p.depth > maxNesting {
		return p.errf(p.cur().pos, "nesting deeper than %d levels", maxNesting)
	}
	return nil
}

// Compile parses source and compiles it into a Program.
func Compile(src string) (*Program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmts []Node
	for !p.at(tokEOF) {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	top, globals := compileProgram(stmts)
	return &Program{stmts: stmts, source: src, top: top, globals: globals}, nil
}

func (p *parser) cur() token        { return p.toks[p.pos] }
func (p *parser) at(k tokKind) bool { return p.cur().kind == k }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) accept(k tokKind) bool {
	if p.at(k) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(k tokKind) (token, error) {
	if !p.at(k) {
		return token{}, &SyntaxError{Pos: p.cur().pos, Msg: fmt.Sprintf("expected %v, found %v", k, p.cur().kind)}
	}
	return p.advance(), nil
}

func (p *parser) errf(pos Pos, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// statement parses one statement; trailing semicolons are optional.
func (p *parser) statement() (Node, error) {
	defer func() { p.depth-- }()
	if err := p.nest(); err != nil {
		return nil, err
	}
	t := p.cur()
	switch t.kind {
	case tokLBrace:
		return p.block()
	case tokFunction:
		// Named function declaration is sugar for assignment; anonymous
		// function literals appear in expression position instead.
		if p.toks[p.pos+1].kind == tokIdent {
			p.advance()
			name := p.advance().text
			fn, err := p.funcRest(t.pos, name)
			if err != nil {
				return nil, err
			}
			p.accept(tokSemicolon)
			return &exprStmt{pos: t.pos, x: &assignExpr{
				pos: t.pos, op: tokAssign,
				target: &identExpr{pos: t.pos, name: name}, value: fn,
			}}, nil
		}
	case tokIf:
		return p.ifStatement()
	case tokWhile:
		return p.whileStatement()
	case tokFor:
		return p.forStatement()
	case tokReturn:
		p.advance()
		var val Node
		if !p.at(tokSemicolon) && !p.at(tokRBrace) && !p.at(tokEOF) {
			v, err := p.expression()
			if err != nil {
				return nil, err
			}
			val = v
		}
		p.accept(tokSemicolon)
		return &returnStmt{pos: t.pos, val: val}, nil
	case tokBreak:
		p.advance()
		p.accept(tokSemicolon)
		return &breakStmt{pos: t.pos}, nil
	case tokContinue:
		p.advance()
		p.accept(tokSemicolon)
		return &continueStmt{pos: t.pos}, nil
	case tokSemicolon:
		p.advance()
		return &blockStmt{pos: t.pos}, nil // empty statement
	}
	x, err := p.expression()
	if err != nil {
		return nil, err
	}
	p.accept(tokSemicolon)
	return &exprStmt{pos: x.position(), x: x}, nil
}

func (p *parser) block() (*blockStmt, error) {
	open, err := p.expect(tokLBrace)
	if err != nil {
		return nil, err
	}
	b := &blockStmt{pos: open.pos}
	for !p.at(tokRBrace) {
		if p.at(tokEOF) {
			return nil, p.errf(open.pos, "unclosed block")
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		b.stmts = append(b.stmts, s)
	}
	p.advance() // }
	return b, nil
}

func (p *parser) ifStatement() (Node, error) {
	t := p.advance() // if
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	then, err := p.statement()
	if err != nil {
		return nil, err
	}
	var alt Node
	if p.accept(tokElse) {
		alt, err = p.statement()
		if err != nil {
			return nil, err
		}
	}
	return &ifStmt{pos: t.pos, cond: cond, then: then, alt: alt}, nil
}

func (p *parser) whileStatement() (Node, error) {
	t := p.advance() // while
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	return &whileStmt{pos: t.pos, cond: cond, body: body}, nil
}

func (p *parser) forStatement() (Node, error) {
	t := p.advance() // for
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	// for (x : iterable) — range form.
	if p.at(tokIdent) && p.toks[p.pos+1].kind == tokColon {
		ident := p.advance().text
		p.advance() // :
		iter, err := p.expression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		body, err := p.statement()
		if err != nil {
			return nil, err
		}
		return &forEachStmt{pos: t.pos, ident: ident, iterable: iter, body: body}, nil
	}
	// C-style: for (init; cond; post).
	var init, cond, post Node
	var err error
	if !p.at(tokSemicolon) {
		init, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokSemicolon); err != nil {
		return nil, err
	}
	if !p.at(tokSemicolon) {
		cond, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokSemicolon); err != nil {
		return nil, err
	}
	if !p.at(tokRParen) {
		post, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	return &forStmt{pos: t.pos, init: init, cond: cond, post: post, body: body}, nil
}

// funcRest parses "(params) { body }" after the function keyword/name.
func (p *parser) funcRest(pos Pos, name string) (Node, error) {
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	var params []string
	seen := map[string]bool{}
	for !p.at(tokRParen) {
		id, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if seen[id.text] {
			return nil, p.errf(id.pos, "duplicate parameter %q", id.text)
		}
		seen[id.text] = true
		params = append(params, id.text)
		if !p.accept(tokComma) {
			break
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &funcLit{pos: pos, name: name, params: params, body: body}, nil
}

// Expression parsing: precedence climbing.

func (p *parser) expression() (Node, error) { return p.assignment() }

func isAssignOp(k tokKind) bool {
	switch k {
	case tokAssign, tokPlusAssign, tokMinusAssign, tokStarAssign, tokSlashAssign:
		return true
	}
	return false
}

func (p *parser) assignment() (Node, error) {
	defer func() { p.depth-- }()
	if err := p.nest(); err != nil {
		return nil, err
	}
	left, err := p.ternary()
	if err != nil {
		return nil, err
	}
	if !isAssignOp(p.cur().kind) {
		return left, nil
	}
	op := p.advance()
	switch left.(type) {
	case *identExpr, *indexExpr, *memberExpr:
	default:
		return nil, p.errf(op.pos, "invalid assignment target")
	}
	value, err := p.assignment() // right-associative
	if err != nil {
		return nil, err
	}
	return &assignExpr{pos: op.pos, op: op.kind, target: left, value: value}, nil
}

func (p *parser) ternary() (Node, error) {
	cond, err := p.logicalOr()
	if err != nil {
		return nil, err
	}
	if !p.at(tokQuestion) {
		return cond, nil
	}
	q := p.advance()
	then, err := p.assignment()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokColon); err != nil {
		return nil, err
	}
	alt, err := p.assignment()
	if err != nil {
		return nil, err
	}
	return &ternaryExpr{pos: q.pos, cond: cond, then: then, alt: alt}, nil
}

func (p *parser) binaryLevel(ops []tokKind, next func() (Node, error)) (Node, error) {
	left, err := next()
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, op := range ops {
			if p.at(op) {
				t := p.advance()
				right, err := next()
				if err != nil {
					return nil, err
				}
				left = &binaryExpr{pos: t.pos, op: t.kind, l: left, r: right}
				matched = true
				break
			}
		}
		if !matched {
			return left, nil
		}
	}
}

func (p *parser) logicalOr() (Node, error) {
	return p.binaryLevel([]tokKind{tokOr}, p.logicalAnd)
}

func (p *parser) logicalAnd() (Node, error) {
	return p.binaryLevel([]tokKind{tokAnd}, p.equality)
}

func (p *parser) equality() (Node, error) {
	return p.binaryLevel([]tokKind{tokEq, tokNe}, p.comparison)
}

func (p *parser) comparison() (Node, error) {
	return p.binaryLevel([]tokKind{tokLt, tokLe, tokGt, tokGe}, p.additive)
}

func (p *parser) additive() (Node, error) {
	return p.binaryLevel([]tokKind{tokPlus, tokMinus}, p.multiplicative)
}

func (p *parser) multiplicative() (Node, error) {
	return p.binaryLevel([]tokKind{tokStar, tokSlash, tokPercent}, p.unary)
}

func (p *parser) unary() (Node, error) {
	defer func() { p.depth-- }()
	if err := p.nest(); err != nil {
		return nil, err
	}
	t := p.cur()
	if t.kind == tokMinus || t.kind == tokNot {
		p.advance()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{pos: t.pos, op: t.kind, x: x}, nil
	}
	return p.postfix()
}

func (p *parser) postfix() (Node, error) {
	x, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().kind {
		case tokLParen:
			open := p.advance()
			var args []Node
			for !p.at(tokRParen) {
				a, err := p.expression()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.accept(tokComma) {
					break
				}
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			x = &callExpr{pos: open.pos, callee: x, args: args}
		case tokLBracket:
			open := p.advance()
			idx, err := p.expression()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRBracket); err != nil {
				return nil, err
			}
			x = &indexExpr{pos: open.pos, target: x, index: idx}
		case tokDot:
			dot := p.advance()
			id, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			x = &memberExpr{pos: dot.pos, target: x, name: id.text}
		default:
			return x, nil
		}
	}
}

func (p *parser) primary() (Node, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.advance()
		return &numberLit{pos: t.pos, val: t.num}, nil
	case tokString:
		p.advance()
		return &stringLit{pos: t.pos, val: t.text}, nil
	case tokTrue:
		p.advance()
		return &boolLit{pos: t.pos, val: true}, nil
	case tokFalse:
		p.advance()
		return &boolLit{pos: t.pos, val: false}, nil
	case tokNil:
		p.advance()
		return &nilLit{pos: t.pos}, nil
	case tokIdent:
		p.advance()
		return &identExpr{pos: t.pos, name: t.text}, nil
	case tokLParen:
		p.advance()
		x, err := p.expression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return x, nil
	case tokLBracket:
		p.advance()
		arr := &arrayLit{pos: t.pos}
		for !p.at(tokRBracket) {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			arr.elems = append(arr.elems, e)
			if !p.accept(tokComma) {
				break
			}
		}
		if _, err := p.expect(tokRBracket); err != nil {
			return nil, err
		}
		return arr, nil
	case tokLBrace:
		// Map literal: { "key": value, ... }.
		p.advance()
		m := &mapLit{pos: t.pos}
		for !p.at(tokRBrace) {
			k, err := p.expression()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokColon); err != nil {
				return nil, err
			}
			v, err := p.expression()
			if err != nil {
				return nil, err
			}
			m.keys = append(m.keys, k)
			m.vals = append(m.vals, v)
			if !p.accept(tokComma) {
				break
			}
		}
		if _, err := p.expect(tokRBrace); err != nil {
			return nil, err
		}
		return m, nil
	case tokFunction:
		p.advance()
		return p.funcRest(t.pos, "")
	}
	return nil, p.errf(t.pos, "unexpected %v", t.kind)
}
