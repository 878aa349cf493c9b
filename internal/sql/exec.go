package sql

import (
	"fmt"
	"strings"

	"xmlordb/internal/ordb"
)

// Engine executes SQL against an ordb database.
type Engine struct {
	db *ordb.DB

	// plans is the bound-plan cache, shared between an engine and every
	// reader engine derived from it. See cache.go.
	plans *planCache
}

// NewEngine returns an Engine over db.
func NewEngine(db *ordb.DB) *Engine { return &Engine{db: db, plans: newPlanCache()} }

// Reader returns an engine bound to the database's most recently
// published frozen version (see ordb version.go): its queries run
// lock-free against that consistent snapshot, its mutations fail with
// ErrFrozen. The plan cache is shared with the live engine — plans bind
// names to leg positions and hold column names, never table pointers, so
// they are valid against any version.
func (en *Engine) Reader() *Engine {
	return &Engine{db: en.db.Reader(), plans: en.plans}
}

// DB exposes the underlying database.
func (en *Engine) DB() *ordb.DB { return en.db }

// Result reports the outcome of a non-query statement.
type Result struct {
	// RowsAffected counts inserted or deleted rows.
	RowsAffected int
	// LastOID is the object identifier assigned by an INSERT into an
	// object table, zero otherwise.
	LastOID ordb.OID
}

// Rows is a materialized query result. Cols may be shared by every
// result of one statement and must not be modified.
type Rows struct {
	Cols []string
	Data [][]ordb.Value
}

// String renders the result set as an aligned text table.
func (r *Rows) String() string {
	widths := make([]int, len(r.Cols))
	for i, c := range r.Cols {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Data))
	for i, row := range r.Data {
		cells[i] = make([]string, len(row))
		for j, v := range row {
			cells[i][j] = ordb.FormatValue(v)
			if len(cells[i][j]) > widths[j] {
				widths[j] = len(cells[i][j])
			}
		}
	}
	var sb strings.Builder
	for i, c := range r.Cols {
		fmt.Fprintf(&sb, "%-*s", widths[i]+2, c)
	}
	sb.WriteString("\n")
	for i := range r.Cols {
		sb.WriteString(strings.Repeat("-", widths[i]) + "  ")
	}
	sb.WriteString("\n")
	for _, row := range cells {
		for j, c := range row {
			fmt.Fprintf(&sb, "%-*s", widths[j]+2, c)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Exec parses and executes one statement. SELECT statements are rejected;
// use Query.
func (en *Engine) Exec(src string) (*Result, error) {
	stmt, err := CachedParse(src)
	if err != nil {
		return nil, err
	}
	switch stmt.(type) {
	case *SelectStmt:
		return nil, fmt.Errorf("sql: use Query for SELECT statements")
	case *ExplainStmt:
		return nil, fmt.Errorf("sql: use Query for EXPLAIN statements")
	}
	return en.execStmt(stmt)
}

// Query parses and executes a SELECT (or EXPLAIN) statement.
func (en *Engine) Query(src string) (*Rows, error) {
	stmt, err := CachedParse(src)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *SelectStmt:
		return en.querySelect(s)
	case *ExplainStmt:
		return en.explainSelect(s.Sel)
	}
	return nil, fmt.Errorf("sql: Query requires a SELECT statement")
}

// ExecScript splits a script on top-level semicolons and executes every
// statement in order, returning the number of statements executed. The
// first error aborts the script.
func (en *Engine) ExecScript(script string) (int, error) {
	stmts, err := SplitScript(script)
	if err != nil {
		return 0, err
	}
	for i, s := range stmts {
		stmt, err := CachedParse(s)
		if err != nil {
			return i, fmt.Errorf("statement %d: %w", i+1, err)
		}
		switch q := stmt.(type) {
		case *SelectStmt:
			if _, err := en.querySelect(q); err != nil {
				return i, fmt.Errorf("statement %d: %w", i+1, err)
			}
			continue
		case *ExplainStmt:
			if _, err := en.explainSelect(q.Sel); err != nil {
				return i, fmt.Errorf("statement %d: %w", i+1, err)
			}
			continue
		}
		if _, err := en.execStmt(stmt); err != nil {
			return i, fmt.Errorf("statement %d: %w", i+1, err)
		}
	}
	return len(stmts), nil
}

func (en *Engine) execStmt(stmt Stmt) (*Result, error) {
	switch s := stmt.(type) {
	case *CreateTypeStmt:
		if err := en.commitBeforeDDL(); err != nil {
			return nil, err
		}
		en.invalidatePlans()
		return en.execCreateType(s)
	case *CreateTableStmt:
		if err := en.commitBeforeDDL(); err != nil {
			return nil, err
		}
		en.invalidatePlans()
		return en.execCreateTable(s)
	case *CreateViewStmt:
		if err := en.commitBeforeDDL(); err != nil {
			return nil, err
		}
		en.invalidatePlans()
		if _, err := en.db.CreateView(s.Name, s.Text, s.Select, s.OrReplace); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *CreateIndexStmt:
		if err := en.commitBeforeDDL(); err != nil {
			return nil, err
		}
		en.invalidatePlans()
		tbl, err := en.db.Table(s.Table)
		if err != nil {
			return nil, err
		}
		if _, err := tbl.CreateIndex(s.Name, s.Col); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *BeginStmt:
		_, err := en.db.Begin()
		return &Result{}, err
	case *CommitStmt:
		tx := en.db.CurrentTx()
		if tx == nil {
			return nil, fmt.Errorf("sql: COMMIT: %w", ordb.ErrNoTx)
		}
		return &Result{}, tx.Commit()
	case *RollbackStmt:
		tx := en.db.CurrentTx()
		if tx == nil {
			return nil, fmt.Errorf("sql: ROLLBACK: %w", ordb.ErrNoTx)
		}
		if s.Savepoint != "" {
			return &Result{}, tx.RollbackTo(s.Savepoint)
		}
		return &Result{}, tx.Rollback()
	case *SavepointStmt:
		tx := en.db.CurrentTx()
		if tx == nil {
			return nil, fmt.Errorf("sql: SAVEPOINT: %w", ordb.ErrNoTx)
		}
		return &Result{}, tx.Savepoint(s.Name)
	case *InsertStmt:
		return en.execInsert(s)
	case *DeleteStmt:
		return en.execDelete(s)
	case *UpdateStmt:
		return en.execUpdate(s)
	case *DropStmt:
		if err := en.commitBeforeDDL(); err != nil {
			return nil, err
		}
		en.invalidatePlans()
		switch s.Kind {
		case "TYPE":
			return &Result{}, en.db.DropType(s.Name, s.Force)
		case "TABLE":
			return &Result{}, en.db.DropTable(s.Name)
		case "VIEW":
			return &Result{}, en.db.DropView(s.Name)
		case "INDEX":
			return &Result{}, en.db.DropIndex(s.Name)
		}
		return nil, fmt.Errorf("sql: unknown DROP kind %q", s.Kind)
	default:
		return nil, fmt.Errorf("sql: unsupported statement %T", stmt)
	}
}

// commitBeforeDDL implicitly commits an open transaction before a DDL
// statement, mirroring Oracle: DDL is auto-commit and never part of a
// data transaction (documented in README "Atomicity and failure
// semantics").
func (en *Engine) commitBeforeDDL() error {
	if tx := en.db.CurrentTx(); tx != nil {
		return tx.Commit()
	}
	return nil
}

// resolveTypeRef turns a syntactic type reference into an engine type.
func (en *Engine) resolveTypeRef(r TypeRef) (ordb.Type, error) {
	switch {
	case r.Scalar == "VARCHAR":
		return ordb.VarcharType{Len: r.Len}, nil
	case r.Scalar == "CHAR":
		return ordb.CharType{Len: r.Len}, nil
	case r.Scalar == "NUMBER":
		return ordb.NumberType{}, nil
	case r.Scalar == "INTEGER":
		return ordb.IntegerType{}, nil
	case r.Scalar == "DATE":
		return ordb.DateType{}, nil
	case r.Scalar == "CLOB":
		return ordb.CLOBType{}, nil
	case r.Ref != "":
		target, err := en.db.ObjectTypeByName(r.Ref)
		if err != nil {
			// REF may name a type that is only forward-declared later in
			// the same script; declare it implicitly as Oracle's
			// incomplete-type mechanism does.
			target, err = en.db.DeclareType(r.Ref)
			if err != nil {
				return nil, err
			}
		}
		return &ordb.RefType{Target: target}, nil
	case r.Named != "":
		return en.db.Type(r.Named)
	default:
		return nil, fmt.Errorf("sql: invalid type reference")
	}
}

func (en *Engine) execCreateType(s *CreateTypeStmt) (*Result, error) {
	switch {
	case s.Forward:
		_, err := en.db.DeclareType(s.Name)
		return &Result{}, err
	case s.IsObject:
		attrs := make([]ordb.AttrDef, len(s.Object))
		for i, c := range s.Object {
			t, err := en.resolveTypeRef(c.Type)
			if err != nil {
				return nil, err
			}
			attrs[i] = ordb.AttrDef{Name: c.Name, Type: t}
		}
		_, err := en.db.CreateObjectType(s.Name, attrs)
		return &Result{}, err
	case s.TableOf:
		elem, err := en.resolveTypeRef(s.Elem)
		if err != nil {
			return nil, err
		}
		_, err = en.db.CreateNestedTableType(s.Name, elem)
		return &Result{}, err
	default:
		elem, err := en.resolveTypeRef(s.Elem)
		if err != nil {
			return nil, err
		}
		_, err = en.db.CreateVarrayType(s.Name, s.VarrayMax, elem)
		return &Result{}, err
	}
}

func (en *Engine) execCreateTable(s *CreateTableStmt) (*Result, error) {
	spec := ordb.TableSpec{Name: s.Name, OfType: s.OfType, NestedStorage: s.NestedStorage}
	if s.OfType == "" {
		for _, c := range s.Cols {
			t, err := en.resolveTypeRef(c.Type)
			if err != nil {
				return nil, err
			}
			spec.Columns = append(spec.Columns, ordb.Column{Name: c.Name, Type: t})
		}
		// Apply constraints to the matching column definitions.
		for _, con := range s.Constraints {
			found := false
			for i := range spec.Columns {
				if strings.EqualFold(spec.Columns[i].Name, con.Col) {
					applyConstraint(&spec.Columns[i], con)
					found = true
				}
			}
			if !found {
				return nil, fmt.Errorf("sql: constraint on unknown column %q", con.Col)
			}
		}
	} else {
		// Object table: constraint entries reference row-type attributes.
		byName := map[string]*ordb.Column{}
		var cols []ordb.Column
		for _, con := range s.Constraints {
			c, ok := byName[strings.ToUpper(con.Col)]
			if !ok {
				cols = append(cols, ordb.Column{Name: con.Col})
				c = &cols[len(cols)-1]
				byName[strings.ToUpper(con.Col)] = c
			}
			applyConstraint(c, con)
		}
		spec.Columns = cols
	}
	for _, chk := range s.Checks {
		spec.Checks = append(spec.Checks, en.newCheck(chk))
	}
	_, err := en.db.CreateTable(spec)
	return &Result{}, err
}

func applyConstraint(col *ordb.Column, con ColConstraint) {
	if con.NotNull {
		col.NotNull = true
	}
	if con.PrimaryKey {
		col.PrimaryKey = true
	}
	if con.Scope != "" {
		col.Scope = con.Scope
	}
}

// checkAdapter bridges a parsed CHECK expression to the engine's
// constraint interface. Per SQL, a CHECK passes unless it evaluates to
// definite FALSE — which still reproduces the paper's Section 4.3
// observation, because x.y IS NOT NULL is definitely false when x is NULL.
// The expression is bound once, against one unaliased leg whose columns
// the candidate row's RowView resolves.
type checkAdapter struct {
	engine *Engine
	expr   Expr
	bound  bexpr
	nslots int
}

func (en *Engine) newCheck(chk Expr) *checkAdapter {
	bound, nslots := en.bindRow([]string{""}, chk)
	return &checkAdapter{engine: en, expr: chk, bound: bound[0], nslots: nslots}
}

// Eval implements ordb.CheckExpr.
func (c *checkAdapter) Eval(row ordb.RowView) (bool, error) {
	st := c.engine.newExecState(nil, 1, c.nslots)
	st.scopes[0].rowView = row
	v, err := c.bound.eval(st)
	if err != nil {
		return false, err
	}
	if ordb.IsNull(v) {
		return true, nil // UNKNOWN passes
	}
	return truthy(v), nil
}

// String implements ordb.CheckExpr.
func (c *checkAdapter) String() string { return FormatExpr(c.expr) }

func (en *Engine) execInsert(s *InsertStmt) (*Result, error) {
	tbl, err := en.db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	vals := make([]ordb.Value, len(tbl.Cols))
	for i := range vals {
		vals[i] = ordb.Null{}
	}
	// VALUES expressions see no row.
	bound, nslots := en.bindRow(nil, s.Values...)
	st := en.newExecState(nil, 0, nslots)
	if len(s.Cols) > 0 {
		if len(s.Cols) != len(s.Values) {
			return nil, fmt.Errorf("sql: INSERT column/value count mismatch")
		}
		for i, cname := range s.Cols {
			idx := tbl.ColIndex(cname)
			if idx < 0 {
				return nil, fmt.Errorf("sql: table %s has no column %q", s.Table, cname)
			}
			v, err := bound[i].eval(st)
			if err != nil {
				return nil, err
			}
			vals[idx] = v
		}
	} else {
		if len(s.Values) != len(tbl.Cols) {
			return nil, fmt.Errorf("sql: INSERT supplies %d values for %d columns",
				len(s.Values), len(tbl.Cols))
		}
		for i, e := range bound {
			v, err := e.eval(st)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
	}
	oid, err := tbl.Insert(vals)
	if err != nil {
		return nil, err
	}
	return &Result{RowsAffected: 1, LastOID: oid}, nil
}

func (en *Engine) execDelete(s *DeleteStmt) (*Result, error) {
	tbl, err := en.db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	var pred func(*ordb.Row) (bool, error)
	if s.Where != nil {
		where, nslots := en.bindRow([]string{tbl.Name}, s.Where)
		st := en.newExecState(nil, 1, nslots)
		pred = func(r *ordb.Row) (bool, error) {
			fillTableScope(&st.scopes[0], tbl, "", r)
			return truth(where[0], st)
		}
	}
	n, err := tbl.Delete(pred)
	if err != nil {
		return nil, err
	}
	return &Result{RowsAffected: n}, nil
}

func (en *Engine) execUpdate(s *UpdateStmt) (*Result, error) {
	tbl, err := en.db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	// Resolve target columns up front.
	idxs := make([]int, len(s.Sets))
	for i, set := range s.Sets {
		idx := tbl.ColIndex(set.Col)
		if idx < 0 {
			return nil, fmt.Errorf("sql: table %s has no column %q", s.Table, set.Col)
		}
		idxs[i] = idx
	}
	// The WHERE and SET expressions see the row being updated.
	exprs := []Expr{s.Where}
	for _, set := range s.Sets {
		exprs = append(exprs, set.Expr)
	}
	bound, nslots := en.bindRow([]string{tbl.Name}, exprs...)
	st := en.newExecState(nil, 1, nslots)
	pred := func(r *ordb.Row) (bool, error) {
		if s.Where == nil {
			return true, nil
		}
		fillTableScope(&st.scopes[0], tbl, "", r)
		return truth(bound[0], st)
	}
	transform := func(vals []ordb.Value) ([]ordb.Value, error) {
		out := make([]ordb.Value, len(vals))
		copy(out, vals)
		fillTableScope(&st.scopes[0], tbl, "", &ordb.Row{Vals: vals})
		for i, e := range bound[1:] {
			v, err := e.eval(st)
			if err != nil {
				return nil, err
			}
			out[idxs[i]] = v
		}
		return out, nil
	}
	n, err := tbl.UpdateWhere(pred, transform)
	if err != nil {
		return nil, err
	}
	return &Result{RowsAffected: n}, nil
}

// fillTableScope populates a (possibly recycled) scope for one row of a
// base table without allocating: the column-name slice is the table's
// shared cache, and an object-table row is boxed only if value() asks.
func fillTableScope(s *scope, t *ordb.Table, alias string, r *ordb.Row) {
	if alias == "" {
		alias = t.Name
	}
	*s = scope{alias: alias, table: t.Name, oid: r.OID, cols: t.ColNames(), vals: r.Vals}
	if t.IsObjectTable() {
		s.rowType = t.RowType.Name
	}
}
