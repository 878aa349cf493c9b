package sql

import (
	"fmt"
	"strconv"
	"strings"

	"xmlordb/internal/ordb"
)

type parser struct {
	toks []token
	pos  int
	src  string
}

// ParseStatement parses a single SQL statement (a trailing semicolon is
// permitted).
func ParseStatement(src string) (Stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(tokSymbol, ";")
	if !p.atEOF() {
		return nil, p.errf("unexpected input after statement: %q", p.cur().text)
	}
	return stmt, nil
}

// SplitScript splits a multi-statement script into individual statement
// texts on top-level semicolons, respecting string literals and comments.
func SplitScript(script string) ([]string, error) {
	toks, err := lex(script)
	if err != nil {
		return nil, err
	}
	var stmts []string
	start := 0
	for _, t := range toks {
		if t.kind == tokSymbol && t.text == ";" {
			s := strings.TrimSpace(script[start:t.pos])
			if s != "" {
				stmts = append(stmts, s)
			}
			start = t.pos + 1
		}
		if t.kind == tokEOF {
			s := strings.TrimSpace(script[start:t.pos])
			// Strip trailing comment-only fragments.
			if s != "" && !isCommentOnly(s) {
				stmts = append(stmts, s)
			}
		}
	}
	return stmts, nil
}

func isCommentOnly(s string) bool {
	toks, err := lex(s)
	if err != nil {
		return false
	}
	return len(toks) == 1 && toks[0].kind == tokEOF
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.cur().kind == tokEOF }

func (p *parser) errf(format string, args ...any) error {
	return &Error{Pos: p.cur().pos, Msg: fmt.Sprintf(format, args...)}
}

// accept consumes the next token when it matches kind and (for keywords
// and symbols) text; it reports whether it consumed.
func (p *parser) accept(kind tokenKind, text string) bool {
	t := p.cur()
	if t.kind != kind {
		return false
	}
	if text != "" && t.text != text {
		return false
	}
	p.pos++
	return true
}

func (p *parser) acceptKw(kw string) bool { return p.accept(tokKeyword, kw) }

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s, got %q", kw, p.cur().text)
	}
	return nil
}

func (p *parser) expectSym(sym string) error {
	if !p.accept(tokSymbol, sym) {
		return p.errf("expected %q, got %q", sym, p.cur().text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		if t.kind == tokKeyword {
			return "", p.errf("reserved word %s cannot be used as an identifier", t.text)
		}
		return "", p.errf("expected identifier, got %q", t.text)
	}
	p.pos++
	return t.text, nil
}

func (p *parser) parseStatement() (Stmt, error) {
	switch {
	case p.acceptKw("CREATE"):
		switch {
		case p.acceptKw("TYPE"):
			return p.parseCreateType()
		case p.acceptKw("TABLE"):
			return p.parseCreateTable()
		case p.acceptKw("VIEW"):
			return p.parseCreateView(false)
		case p.acceptKw("INDEX"):
			return p.parseCreateIndex()
		case p.acceptKw("OR"):
			if err := p.expectKw("REPLACE"); err != nil {
				return nil, err
			}
			if err := p.expectKw("VIEW"); err != nil {
				return nil, err
			}
			return p.parseCreateView(true)
		default:
			return nil, p.errf("expected TYPE, TABLE, VIEW or INDEX after CREATE")
		}
	case p.acceptKw("INSERT"):
		return p.parseInsert()
	case p.acceptKw("SELECT"):
		return p.parseSelectBody()
	case p.acceptKw("EXPLAIN"):
		// Both EXPLAIN SELECT ... and Oracle's EXPLAIN PLAN FOR SELECT ...
		if p.acceptKw("PLAN") {
			if err := p.expectKw("FOR"); err != nil {
				return nil, err
			}
		}
		if err := p.expectKw("SELECT"); err != nil {
			return nil, err
		}
		sel, err := p.parseSelectBody()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Sel: sel}, nil
	case p.acceptKw("DELETE"):
		return p.parseDelete()
	case p.acceptKw("UPDATE"):
		return p.parseUpdate()
	case p.acceptKw("DROP"):
		return p.parseDrop()
	case p.acceptKw("BEGIN"):
		if !p.acceptKw("WORK") {
			p.acceptKw("TRANSACTION")
		}
		return &BeginStmt{}, nil
	case p.acceptKw("COMMIT"):
		p.acceptKw("WORK")
		return &CommitStmt{}, nil
	case p.acceptKw("ROLLBACK"):
		p.acceptKw("WORK")
		stmt := &RollbackStmt{}
		if p.acceptKw("TO") {
			p.acceptKw("SAVEPOINT")
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			stmt.Savepoint = name
		}
		return stmt, nil
	case p.acceptKw("SAVEPOINT"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &SavepointStmt{Name: name}, nil
	default:
		return nil, p.errf("unexpected statement start %q", p.cur().text)
	}
}

// parseTypeRef parses a type reference: scalar keyword, user-defined name,
// or REF name.
func (p *parser) parseTypeRef() (TypeRef, error) {
	t := p.cur()
	switch {
	case t.kind == tokKeyword && (t.text == "VARCHAR" || t.text == "VARCHAR2" || t.text == "CHAR"):
		p.pos++
		ref := TypeRef{Scalar: "VARCHAR"}
		if t.text == "CHAR" {
			ref.Scalar = "CHAR"
		}
		if err := p.expectSym("("); err != nil {
			return ref, err
		}
		n := p.cur()
		if n.kind != tokNumber {
			return ref, p.errf("expected length, got %q", n.text)
		}
		p.pos++
		l, err := strconv.Atoi(n.text)
		if err != nil || l <= 0 {
			return ref, p.errf("bad length %q", n.text)
		}
		ref.Len = l
		return ref, p.expectSym(")")
	case t.kind == tokKeyword && (t.text == "NUMBER" || t.text == "INTEGER" || t.text == "DATE" || t.text == "CLOB"):
		p.pos++
		return TypeRef{Scalar: t.text}, nil
	case t.kind == tokKeyword && t.text == "REF":
		p.pos++
		name, err := p.ident()
		if err != nil {
			return TypeRef{}, err
		}
		return TypeRef{Ref: name}, nil
	case t.kind == tokIdent:
		p.pos++
		return TypeRef{Named: t.text}, nil
	default:
		return TypeRef{}, p.errf("expected type, got %q", t.text)
	}
}

func (p *parser) parseCreateType() (Stmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt := &CreateTypeStmt{Name: name}
	if !p.acceptKw("AS") {
		// Forward declaration: CREATE TYPE name;
		stmt.Forward = true
		return stmt, nil
	}
	switch {
	case p.acceptKw("OBJECT"):
		stmt.IsObject = true
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		for {
			aname, err := p.ident()
			if err != nil {
				return nil, err
			}
			tref, err := p.parseTypeRef()
			if err != nil {
				return nil, err
			}
			stmt.Object = append(stmt.Object, ColDef{Name: aname, Type: tref})
			if p.accept(tokSymbol, ",") {
				continue
			}
			return stmt, p.expectSym(")")
		}
	case p.acceptKw("VARRAY"):
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		n := p.cur()
		if n.kind != tokNumber {
			return nil, p.errf("expected VARRAY size")
		}
		p.pos++
		max, err := strconv.Atoi(n.text)
		if err != nil {
			return nil, p.errf("bad VARRAY size %q", n.text)
		}
		stmt.VarrayMax = max
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		if err := p.expectKw("OF"); err != nil {
			return nil, err
		}
		stmt.Elem, err = p.parseTypeRef()
		return stmt, err
	case p.acceptKw("TABLE"):
		if err := p.expectKw("OF"); err != nil {
			return nil, err
		}
		stmt.TableOf = true
		stmt.Elem, err = p.parseTypeRef()
		return stmt, err
	default:
		return nil, p.errf("expected OBJECT, VARRAY or TABLE after AS")
	}
}

func (p *parser) parseCreateTable() (Stmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt := &CreateTableStmt{Name: name, NestedStorage: map[string]string{}}
	if p.acceptKw("OF") {
		stmt.OfType, err = p.ident()
		if err != nil {
			return nil, err
		}
		// Optional constraint list.
		if p.accept(tokSymbol, "(") {
			if err := p.parseTableBody(stmt, true); err != nil {
				return nil, err
			}
		}
	} else {
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		if err := p.parseTableBody(stmt, false); err != nil {
			return nil, err
		}
	}
	// Zero or more NESTED TABLE col STORE AS name clauses.
	for p.acceptKw("NESTED") {
		if err := p.expectKw("TABLE"); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("STORE"); err != nil {
			return nil, err
		}
		if err := p.expectKw("AS"); err != nil {
			return nil, err
		}
		store, err := p.ident()
		if err != nil {
			return nil, err
		}
		stmt.NestedStorage[strings.ToUpper(col)] = store
	}
	return stmt, nil
}

// parseTableBody parses the parenthesized body of CREATE TABLE. In an
// object table (ofType=true) entries are constraints on attributes; in a
// relational table entries are column definitions optionally followed by
// inline constraints, or table-level CHECK/PRIMARY KEY clauses.
func (p *parser) parseTableBody(stmt *CreateTableStmt, ofType bool) error {
	for {
		switch {
		case p.acceptKw("CHECK"):
			if err := p.expectSym("("); err != nil {
				return err
			}
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			if err := p.expectSym(")"); err != nil {
				return err
			}
			stmt.Checks = append(stmt.Checks, e)
		case p.acceptKw("PRIMARY"):
			if err := p.expectKw("KEY"); err != nil {
				return err
			}
			if err := p.expectSym("("); err != nil {
				return err
			}
			for {
				col, err := p.ident()
				if err != nil {
					return err
				}
				stmt.Constraints = append(stmt.Constraints, ColConstraint{Col: col, PrimaryKey: true})
				if !p.accept(tokSymbol, ",") {
					break
				}
			}
			if err := p.expectSym(")"); err != nil {
				return err
			}
		default:
			name, err := p.ident()
			if err != nil {
				return err
			}
			if !ofType {
				// Column definition with a type.
				tref, err := p.parseTypeRef()
				if err != nil {
					return err
				}
				stmt.Cols = append(stmt.Cols, ColDef{Name: name, Type: tref})
			}
			// Inline constraints for both forms.
			if err := p.parseInlineConstraints(stmt, name); err != nil {
				return err
			}
		}
		if p.accept(tokSymbol, ",") {
			continue
		}
		return p.expectSym(")")
	}
}

func (p *parser) parseInlineConstraints(stmt *CreateTableStmt, col string) error {
	for {
		switch {
		case p.acceptKw("NOT"):
			if err := p.expectKw("NULL"); err != nil {
				return err
			}
			stmt.Constraints = append(stmt.Constraints, ColConstraint{Col: col, NotNull: true})
		case p.acceptKw("PRIMARY"):
			if err := p.expectKw("KEY"); err != nil {
				return err
			}
			stmt.Constraints = append(stmt.Constraints, ColConstraint{Col: col, PrimaryKey: true})
		case p.acceptKw("SCOPE"):
			if err := p.expectKw("FOR"); err != nil {
				return err
			}
			if err := p.expectSym("("); err != nil {
				return err
			}
			target, err := p.ident()
			if err != nil {
				return err
			}
			if err := p.expectSym(")"); err != nil {
				return err
			}
			stmt.Constraints = append(stmt.Constraints, ColConstraint{Col: col, Scope: target})
		default:
			return nil
		}
	}
}

func (p *parser) parseCreateView(orReplace bool) (Stmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("AS"); err != nil {
		return nil, err
	}
	defStart := p.cur().pos
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	sel, err := p.parseSelectBody()
	if err != nil {
		return nil, err
	}
	return &CreateViewStmt{
		Name:      name,
		OrReplace: orReplace,
		Select:    sel,
		Text:      strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(p.src[defStart:]), ";")),
	}, nil
}

func (p *parser) parseInsert() (Stmt, error) {
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: table}
	if p.accept(tokSymbol, "(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			stmt.Cols = append(stmt.Cols, col)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Values = append(stmt.Values, e)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	return stmt, p.expectSym(")")
}

// parseSelectBody parses everything after the SELECT keyword.
func (p *parser) parseSelectBody() (*SelectStmt, error) {
	stmt := &SelectStmt{}
	for {
		if p.accept(tokSymbol, "*") {
			stmt.Items = append(stmt.Items, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKw("AS") {
				alias, err := p.ident()
				if err != nil {
					return nil, err
				}
				item.Alias = alias
			} else if p.cur().kind == tokIdent {
				item.Alias = p.cur().text
				p.pos++
			}
			stmt.Items = append(stmt.Items, item)
		}
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	for {
		item, err := p.parseFromItem()
		if err != nil {
			return nil, err
		}
		stmt.From = append(stmt.From, item)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	return stmt, nil
}

func (p *parser) parseUpdate() (Stmt, error) {
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	stmt := &UpdateStmt{Table: table}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Sets = append(stmt.Sets, SetClause{Col: col, Expr: e})
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	return stmt, nil
}

func (p *parser) parseFromItem() (FromItem, error) {
	var item FromItem
	if p.acceptKw("TABLE") {
		if err := p.expectSym("("); err != nil {
			return item, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return item, err
		}
		if err := p.expectSym(")"); err != nil {
			return item, err
		}
		item.Unnest = e
	} else {
		name, err := p.ident()
		if err != nil {
			return item, err
		}
		item.Table = name
	}
	if p.cur().kind == tokIdent {
		item.Alias = p.cur().text
		p.pos++
	}
	return item, nil
}

func (p *parser) parseDelete() (Stmt, error) {
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{Table: table}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	return stmt, nil
}

func (p *parser) parseDrop() (Stmt, error) {
	var kind string
	switch {
	case p.acceptKw("TYPE"):
		kind = "TYPE"
	case p.acceptKw("TABLE"):
		kind = "TABLE"
	case p.acceptKw("VIEW"):
		kind = "VIEW"
	case p.acceptKw("INDEX"):
		kind = "INDEX"
	default:
		return nil, p.errf("expected TYPE, TABLE, VIEW or INDEX after DROP")
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt := &DropStmt{Kind: kind, Name: name}
	if p.acceptKw("FORCE") {
		stmt.Force = true
	}
	return stmt, nil
}

// parseCreateIndex parses CREATE INDEX name ON table (col). The CREATE
// INDEX keywords were consumed by the caller.
func (p *parser) parseCreateIndex() (Stmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("ON"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	col, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return &CreateIndexStmt{Name: name, Table: table, Col: col}, nil
}

// isCallKeyword reports keywords that introduce built-in function calls.
func isCallKeyword(kw string) bool {
	switch kw {
	case "COUNT", "REF", "DEREF", "VALUE", "MIN", "MAX", "SUM", "AVG":
		return true
	default:
		return false
	}
}

// Expression grammar (precedence climbing):
//
//	expr    := orTerm
//	orTerm  := andTerm (OR andTerm)*
//	andTerm := notTerm (AND notTerm)*
//	notTerm := NOT notTerm | predicate
//	pred    := concat ((= != <> < > <= >= LIKE) concat | IS [NOT] NULL)?
//	concat  := primary (|| primary)*
//	primary := literal | path | call | CAST(MULTISET..) | EXISTS(..) | (expr) | -primary
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKw("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", E: e}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Expr, error) {
	l, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.kind == tokSymbol {
		switch t.text {
		case "=", "!=", "<>", "<", ">", "<=", ">=":
			p.pos++
			r, err := p.parseConcat()
			if err != nil {
				return nil, err
			}
			op := t.text
			if op == "<>" {
				op = "!="
			}
			return &Binary{Op: op, L: l, R: r}, nil
		}
	}
	if p.acceptKw("LIKE") {
		r, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: "LIKE", L: l, R: r}, nil
	}
	if p.acceptKw("IS") {
		not := p.acceptKw("NOT")
		if err := p.expectKw("NULL"); err != nil {
			return nil, err
		}
		return &IsNull{E: l, Not: not}, nil
	}
	return l, nil
}

func (p *parser) parseConcat() (Expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.accept(tokSymbol, "||") {
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "||", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokString:
		p.pos++
		return &Lit{Kind: "string", Str: t.text, Val: ordb.Str(t.text)}, nil
	case t.kind == tokNumber:
		p.pos++
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return &Lit{Kind: "number", Num: f, Val: ordb.Num(f)}, nil
	case t.kind == tokKeyword && t.text == "NULL":
		p.pos++
		return &Lit{Kind: "null", Val: ordb.Null{}}, nil
	case t.kind == tokKeyword && t.text == "DATE":
		p.pos++
		s := p.cur()
		if s.kind != tokString {
			return nil, p.errf("expected date literal string")
		}
		p.pos++
		// A malformed date is not a parse error: it fails when the
		// literal is evaluated (Val stays nil), as it always has.
		d, _ := ParseDateLiteral(s.text)
		return &Lit{Kind: "date", Str: s.text, Val: d}, nil
	case t.kind == tokSymbol && t.text == "-":
		p.pos++
		e, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", E: e}, nil
	case t.kind == tokSymbol && t.text == "(":
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return e, p.expectSym(")")
	case t.kind == tokKeyword && t.text == "CAST":
		p.pos++
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		if err := p.expectKw("MULTISET"); err != nil {
			return nil, err
		}
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		if err := p.expectKw("SELECT"); err != nil {
			return nil, err
		}
		sub, err := p.parseSelectBody()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		if err := p.expectKw("AS"); err != nil {
			return nil, err
		}
		tn, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &CastMultiset{Sub: sub, TypeName: tn}, p.expectSym(")")
	case t.kind == tokKeyword && t.text == "EXISTS":
		p.pos++
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		if err := p.expectKw("SELECT"); err != nil {
			return nil, err
		}
		sub, err := p.parseSelectBody()
		if err != nil {
			return nil, err
		}
		return &Exists{Sub: sub}, p.expectSym(")")
	case t.kind == tokKeyword && isCallKeyword(t.text):
		p.pos++
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		call := &Call{Name: t.text}
		if t.text == "COUNT" && p.accept(tokSymbol, "*") {
			call.Star = true
			return call, p.expectSym(")")
		}
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, a)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		return call, p.expectSym(")")
	case t.kind == tokIdent:
		p.pos++
		if p.cur().kind == tokSymbol && p.cur().text == "(" {
			// Constructor or function call.
			p.pos++
			call := &Call{Name: t.text}
			if p.accept(tokSymbol, ")") {
				return call, nil
			}
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if !p.accept(tokSymbol, ",") {
					break
				}
			}
			return call, p.expectSym(")")
		}
		// Dot path.
		path := &Path{Parts: []string{t.text}}
		for p.accept(tokSymbol, ".") {
			part, err := p.ident()
			if err != nil {
				return nil, err
			}
			path.Parts = append(path.Parts, part)
		}
		return path, nil
	default:
		return nil, p.errf("unexpected token %q in expression", t.text)
	}
}
