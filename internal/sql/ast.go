package sql

import "xmlordb/internal/ordb"

// Stmt is any parsed SQL statement.
type Stmt interface{ stmtNode() }

// TypeRef is a syntactic type reference resolved against the catalog at
// execution time.
type TypeRef struct {
	// Scalar is the keyword of a built-in type (VARCHAR, NUMBER, ...) or
	// empty for named/REF references.
	Scalar string
	// Len is the length parameter of VARCHAR/CHAR.
	Len int
	// Named references a user-defined type by name.
	Named string
	// Ref references row objects of the named object type (REF name).
	Ref string
}

// ColDef is one column (or object-type attribute) definition.
type ColDef struct {
	Name string
	Type TypeRef
}

// ColConstraint is a column-level constraint inside a CREATE TABLE body.
type ColConstraint struct {
	Col        string
	NotNull    bool
	PrimaryKey bool
	// Scope is the SCOPE FOR (table) target, empty if none.
	Scope string
}

// CreateTypeStmt covers all four CREATE TYPE forms.
type CreateTypeStmt struct {
	Name string
	// Forward marks CREATE TYPE name; (incomplete declaration).
	Forward bool
	// Object holds the attribute list of AS OBJECT.
	Object []ColDef
	// IsObject distinguishes an empty attribute list from other forms.
	IsObject bool
	// VarrayMax and Elem describe AS VARRAY(max) OF elem.
	VarrayMax int
	// TableOf marks AS TABLE OF elem.
	TableOf bool
	Elem    TypeRef
}

func (*CreateTypeStmt) stmtNode() {}

// CreateTableStmt is CREATE TABLE, relational or object-table form.
type CreateTableStmt struct {
	Name string
	// OfType is the row type of an object table (CREATE TABLE t OF type).
	OfType string
	// Cols are the column definitions of a relational table.
	Cols []ColDef
	// Constraints collects PRIMARY KEY / NOT NULL / SCOPE FOR clauses.
	Constraints []ColConstraint
	// Checks are CHECK(...) expressions.
	Checks []Expr
	// NestedStorage maps column names to NESTED TABLE ... STORE AS names.
	NestedStorage map[string]string
}

func (*CreateTableStmt) stmtNode() {}

// CreateViewStmt is CREATE [OR REPLACE] VIEW name AS select.
type CreateViewStmt struct {
	Name      string
	OrReplace bool
	Select    *SelectStmt
	// Text is the original SQL of the defining query (for the catalog).
	Text string
}

func (*CreateViewStmt) stmtNode() {}

// InsertStmt is INSERT INTO table [(cols)] VALUES (exprs).
type InsertStmt struct {
	Table  string
	Cols   []string
	Values []Expr
}

func (*InsertStmt) stmtNode() {}

// SelectItem is one select-list entry.
type SelectItem struct {
	Expr  Expr
	Alias string
	// Star marks a bare '*'.
	Star bool
}

// FromItem is one FROM-clause source: a table/view name or a TABLE(expr)
// collection unnesting. Later items may reference the aliases of earlier
// ones (lateral semantics, as Oracle's TABLE() allows).
type FromItem struct {
	// Table is the table or view name; empty for TABLE(expr) items.
	Table string
	// Unnest is the collection expression of TABLE(expr) items.
	Unnest Expr
	Alias  string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is the query form of the subset.
type SelectStmt struct {
	Items   []SelectItem
	From    []FromItem
	Where   Expr
	GroupBy []Expr
	OrderBy []OrderItem
}

func (*SelectStmt) stmtNode() {}

// SetClause is one column assignment of an UPDATE.
type SetClause struct {
	Col  string
	Expr Expr
}

// UpdateStmt is UPDATE table SET col = expr [, ...] [WHERE cond].
type UpdateStmt struct {
	Table string
	Sets  []SetClause
	Where Expr
}

func (*UpdateStmt) stmtNode() {}

// DeleteStmt is DELETE FROM table [WHERE cond].
type DeleteStmt struct {
	Table string
	Where Expr
}

func (*DeleteStmt) stmtNode() {}

// DropStmt is DROP TYPE|TABLE|VIEW|INDEX name [FORCE].
type DropStmt struct {
	// Kind is "TYPE", "TABLE", "VIEW" or "INDEX".
	Kind  string
	Name  string
	Force bool
}

func (*DropStmt) stmtNode() {}

// CreateIndexStmt is CREATE INDEX name ON table (col): a persistent
// equality index over one scalar column.
type CreateIndexStmt struct {
	Name  string
	Table string
	Col   string
}

func (*CreateIndexStmt) stmtNode() {}

// BeginStmt is BEGIN [WORK|TRANSACTION]: open a data transaction.
type BeginStmt struct{}

func (*BeginStmt) stmtNode() {}

// CommitStmt is COMMIT [WORK].
type CommitStmt struct{}

func (*CommitStmt) stmtNode() {}

// RollbackStmt is ROLLBACK [WORK] [TO [SAVEPOINT] name]. An empty
// Savepoint rolls back the whole transaction.
type RollbackStmt struct {
	Savepoint string
}

func (*RollbackStmt) stmtNode() {}

// SavepointStmt is SAVEPOINT name.
type SavepointStmt struct {
	Name string
}

func (*SavepointStmt) stmtNode() {}

// ExplainStmt is EXPLAIN [PLAN FOR] select: it compiles the SELECT into
// an executor plan and returns the rendered tree without running it.
type ExplainStmt struct {
	Sel *SelectStmt
}

func (*ExplainStmt) stmtNode() {}

// Expr is any expression node.
type Expr interface{ exprNode() }

// Lit is a literal: string, number, NULL or DATE 'yyyy-mm-dd'.
type Lit struct {
	// Kind is one of "string", "number", "null", "date".
	Kind string
	Str  string
	Num  float64
	// Val is the literal's value, boxed once by the parser so that
	// evaluating it allocates nothing. The parsed tree is shared by
	// every execution of a cached statement, so Val is never written
	// after parsing. It is nil only for a malformed DATE literal, which
	// reports its error when evaluated.
	Val ordb.Value
}

func (*Lit) exprNode() {}

// Path is a dot-notation reference: alias.column.attr... or a bare
// column/alias name.
type Path struct {
	Parts []string
}

func (*Path) exprNode() {}

// Call is a function or constructor invocation. Constructors are calls
// whose name resolves to a user-defined type. Star marks COUNT(*).
type Call struct {
	Name string
	Args []Expr
	Star bool
}

func (*Call) exprNode() {}

// CastMultiset is CAST(MULTISET(subquery) AS typename) — the Section 6.3
// construct that aggregates a correlated subquery into a collection.
type CastMultiset struct {
	Sub      *SelectStmt
	TypeName string
}

func (*CastMultiset) exprNode() {}

// Binary is a binary operation. Op is one of = != <> < > <= >= AND OR
// LIKE ||.
type Binary struct {
	Op   string
	L, R Expr
}

func (*Binary) exprNode() {}

// Unary is NOT x or -x.
type Unary struct {
	Op string
	E  Expr
}

func (*Unary) exprNode() {}

// IsNull is x IS [NOT] NULL.
type IsNull struct {
	E   Expr
	Not bool
}

func (*IsNull) exprNode() {}

// Exists is EXISTS (subquery).
type Exists struct {
	Sub *SelectStmt
}

func (*Exists) exprNode() {}
