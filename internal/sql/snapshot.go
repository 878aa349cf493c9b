package sql

import (
	"encoding/gob"
	"fmt"
	"io"
	"slices"
	"strings"

	"xmlordb/internal/ordb"
)

// Snapshot persistence: SaveSnapshot serializes an engine's entire state
// — catalog and rows — to a writer; LoadSnapshot rebuilds an equivalent
// engine. The catalog travels as regenerated DDL text (types, tables with
// their constraints and CHECK expressions, the indexes CREATE TABLE does
// not restore by itself, views), and the rows as gob-encoded values with
// their object identifiers preserved, so REFs stay valid across the round
// trip.

func init() {
	gob.Register(ordb.Null{})
	gob.Register(ordb.Str(""))
	gob.Register(ordb.Num(0))
	gob.Register(ordb.DateVal{})
	gob.Register(ordb.Ref{})
	gob.Register(&ordb.Object{})
	gob.Register(&ordb.Coll{})
}

// snapshot is the on-disk format.
type snapshot struct {
	// Version guards the format.
	Version int
	Mode    int
	// DDL recreates the catalog in order.
	DDL []string
	// Tables carry the stored rows in creation order.
	Tables []tableSnapshot
}

type tableSnapshot struct {
	Name string
	Rows []rowSnapshot
}

type rowSnapshot struct {
	OID  int64
	Vals []ordb.Value
}

// SaveSnapshot writes the engine's full state. Rows are captured
// atomically via ordb.DB.SnapshotRows, so a snapshot taken while
// concurrent committed writers run reflects one point in time; an open
// transaction fails the save with ordb.ErrTxActive rather than leaking
// uncommitted state into the snapshot. Concurrent DDL must still be
// excluded by the caller (the server layer saves under its store write
// lock, the same discipline as writers).
func (en *Engine) SaveSnapshot(w io.Writer) error {
	db := en.db
	tableRows, err := db.SnapshotRows()
	if err != nil {
		return err
	}
	snap := snapshot{Version: 1, Mode: int(db.Mode())}
	typeDDL, err := catalogTypeDDL(db)
	if err != nil {
		return err
	}
	snap.DDL = typeDDL
	tables := make([]*ordb.Table, 0, len(tableRows))
	for _, tr := range tableRows {
		t, err := db.Table(tr.Name)
		if err != nil {
			return err
		}
		tables = append(tables, t)
		snap.DDL = append(snap.DDL, TableDDL(t))
		ts := tableSnapshot{Name: t.Name}
		for _, r := range tr.Rows {
			ts.Rows = append(ts.Rows, rowSnapshot{OID: int64(r.OID), Vals: r.Vals})
		}
		snap.Tables = append(snap.Tables, ts)
	}
	snap.DDL = append(snap.DDL, indexDDL(tables)...)
	for _, name := range db.ViewNames() {
		v, err := db.View(name)
		if err != nil {
			return err
		}
		snap.DDL = append(snap.DDL, fmt.Sprintf("CREATE VIEW %s AS %s", v.Name, v.Definition))
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// LoadSnapshot rebuilds an engine from a snapshot stream.
func LoadSnapshot(r io.Reader) (*Engine, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("sql: decoding snapshot: %w", err)
	}
	if snap.Version != 1 {
		return nil, fmt.Errorf("sql: unsupported snapshot version %d", snap.Version)
	}
	en := NewEngine(ordb.New(ordb.Mode(snap.Mode)))
	for i, stmt := range snap.DDL {
		if _, err := en.Exec(stmt); err != nil {
			return nil, fmt.Errorf("sql: snapshot DDL %d: %w\n%s", i+1, err, stmt)
		}
	}
	for _, ts := range snap.Tables {
		tab, err := en.db.Table(ts.Name)
		if err != nil {
			return nil, err
		}
		for _, row := range ts.Rows {
			if err := tab.RestoreRow(ordb.OID(row.OID), row.Vals); err != nil {
				return nil, err
			}
		}
	}
	return en, nil
}

// indexDDL renders what CREATE TABLE alone does not restore: a DROP INDEX
// for each automatic index a table no longer has and a CREATE INDEX for
// each index the automatic rule does not give it. The drops all come
// first: index names are unique database-wide, and a name dropped on one
// table may be in use on another.
func indexDDL(tables []*ordb.Table) []string {
	var drops, creates []string
	for _, t := range tables {
		auto, have := t.AutoIndexes(), t.Indexes()
		for _, a := range auto {
			if !slices.ContainsFunc(have, func(h ordb.IndexDef) bool { return sameIndex(a, h) }) {
				drops = append(drops, "DROP INDEX "+a.Name)
			}
		}
		for _, h := range have {
			if !slices.ContainsFunc(auto, func(a ordb.IndexDef) bool { return sameIndex(a, h) }) {
				creates = append(creates, fmt.Sprintf("CREATE INDEX %s ON %s (%s)", h.Name, t.Name, h.Col))
			}
		}
	}
	return append(drops, creates...)
}

func sameIndex(a, b ordb.IndexDef) bool {
	return strings.EqualFold(a.Name, b.Name) && strings.EqualFold(a.Col, b.Col)
}

// catalogTypeDDL regenerates CREATE TYPE statements for every user-
// defined type: forward declarations for all object types first (so REF
// attributes always resolve), then full definitions in dependency order
// (embedded object types and collection element types before their
// users; REF edges impose no ordering).
func catalogTypeDDL(db *ordb.DB) ([]string, error) {
	names := db.TypeNames()
	types := map[string]ordb.Type{}
	var out []string
	for _, name := range names {
		t, err := db.Type(name)
		if err != nil {
			return nil, err
		}
		types[name] = t
		if _, isObj := t.(*ordb.ObjectType); isObj {
			out = append(out, "CREATE TYPE "+name)
		}
	}
	done := map[string]bool{}
	var visit func(name string) error
	visit = func(name string) error {
		if done[name] {
			return nil
		}
		done[name] = true
		t := types[name]
		for _, dep := range typeDefDeps(t) {
			if _, known := types[dep]; known {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		ddl, err := typeDefinitionDDL(t)
		if err != nil {
			return err
		}
		out = append(out, ddl)
		return nil
	}
	for _, name := range names {
		if err := visit(name); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// typeDefDeps lists named types a definition needs to exist beforehand
// (everything except REF targets, which forward declarations cover).
func typeDefDeps(t ordb.Type) []string {
	named := func(x ordb.Type) []string {
		if _, isRef := x.(*ordb.RefType); isRef {
			return nil
		}
		if n := ordb.NamedType(x); n != "" {
			return []string{n}
		}
		return nil
	}
	switch ty := t.(type) {
	case *ordb.ObjectType:
		var deps []string
		for _, a := range ty.Attrs {
			deps = append(deps, named(a.Type)...)
		}
		return deps
	case *ordb.VarrayType:
		return named(ty.Elem)
	case *ordb.NestedTableType:
		return named(ty.Elem)
	default:
		return nil
	}
}

// typeDefinitionDDL renders the full CREATE TYPE statement.
func typeDefinitionDDL(t ordb.Type) (string, error) {
	switch ty := t.(type) {
	case *ordb.ObjectType:
		var attrs []string
		for _, a := range ty.Attrs {
			attrs = append(attrs, "\t"+a.Name+" "+a.Type.SQL())
		}
		return fmt.Sprintf("CREATE TYPE %s AS OBJECT(\n%s)", ty.Name, strings.Join(attrs, ",\n")), nil
	case *ordb.VarrayType:
		return fmt.Sprintf("CREATE TYPE %s AS VARRAY(%d) OF %s", ty.Name, ty.Max, ty.Elem.SQL()), nil
	case *ordb.NestedTableType:
		return fmt.Sprintf("CREATE TYPE %s AS TABLE OF %s", ty.Name, ty.Elem.SQL()), nil
	default:
		return "", fmt.Errorf("sql: cannot regenerate DDL for %T", t)
	}
}

// TableDDL regenerates the CREATE TABLE statement for a table, including
// column constraints, CHECK expressions and NESTED TABLE storage clauses.
func TableDDL(t *ordb.Table) string {
	var sb strings.Builder
	var body []string
	if t.IsObjectTable() {
		fmt.Fprintf(&sb, "CREATE TABLE %s OF %s", t.Name, t.RowType.Name)
		for _, c := range t.Cols {
			body = append(body, columnConstraints(c, "\t"+c.Name)...)
		}
	} else {
		fmt.Fprintf(&sb, "CREATE TABLE %s", t.Name)
		for _, c := range t.Cols {
			col := "\t" + c.Name + " " + c.Type.SQL()
			cons := columnConstraints(c, col)
			if len(cons) == 0 {
				body = append(body, col)
			} else {
				// Inline constraints attach to the definition itself.
				body = append(body, cons[0])
			}
		}
	}
	for _, chk := range t.Checks {
		body = append(body, "\tCHECK ("+chk.String()+")")
	}
	if len(body) > 0 {
		sb.WriteString("(\n" + strings.Join(body, ",\n") + ")")
	}
	for col, store := range t.NestedStorage {
		fmt.Fprintf(&sb, "\n\tNESTED TABLE %s STORE AS %s", col, store)
	}
	return sb.String()
}

// columnConstraints renders the inline constraints of a column appended
// to the given prefix; returns nil when the column has none.
func columnConstraints(c ordb.Column, prefix string) []string {
	suffix := ""
	if c.PrimaryKey {
		suffix += " PRIMARY KEY"
	}
	if c.NotNull {
		suffix += " NOT NULL"
	}
	if c.Scope != "" {
		suffix += " SCOPE FOR (" + c.Scope + ")"
	}
	if suffix == "" {
		return nil
	}
	return []string{prefix + suffix}
}
