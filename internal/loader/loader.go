// Package loader populates a generated object-relational schema from XML
// documents. Under the nested strategy a whole document becomes ONE row
// of the root table — built with nested type constructors, exactly the
// single-INSERT property Section 4.1/4.2 of the paper contrasts with
// relational shredding. Under the REF strategy (Oracle 8) every complex
// element becomes a row of its own object table, linked by REF-valued
// attributes, and the document decomposes into many insertions.
package loader

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"xmlordb/internal/dtd"
	"xmlordb/internal/mapping"
	"xmlordb/internal/meta"
	"xmlordb/internal/ordb"
	"xmlordb/internal/sql"
	"xmlordb/internal/xmldom"
)

// ErrRefStrategySQL reports that textual INSERT generation is not
// available for the REF strategy — the difficulty the paper itself
// describes in Section 4.2 ("it is hard to generate the appropriate
// INSERT statements" because the referenced object's identifier has to be
// retrieved first; that is why XML2Oracle introduced the generated unique
// attribute).
var ErrRefStrategySQL = errors.New(
	"loader: SQL text generation requires the nested strategy; REF-linked rows are loaded through the API")

// Loader loads documents conforming to one generated schema.
type Loader struct {
	sch *mapping.Schema
	en  *sql.Engine
	// Meta, when non-nil, registers each loaded document in TabMetadata
	// under the DocID the loader allocates.
	Meta *meta.Store
	// refRows reports that the schema stores rows in object tables
	// (recursion, ID targets, StrategyRef): shredding then interleaves
	// with inserts and cannot run off the engine (see Prepare).
	refRows bool
	// genIDs shares the generated identifier values across documents.
	genIDs genIDCache
}

// genIDCache holds the boxed FieldGenID values ("Student#3"). They are
// numbered per document, so every document repeats the values of the
// ones before it; sharing one immutable box per value keeps the store
// from holding a copy per row. The cache is bounded, and safe for
// loaders that shred concurrently.
type genIDCache struct {
	mu sync.RWMutex
	m  map[genIDKey]ordb.Value
}

type genIDKey struct {
	elem string
	seq  int
}

// genIDCacheMax bounds the cache; values beyond it are boxed per row.
const genIDCacheMax = 4096

func (c *genIDCache) value(elem string, seq int) ordb.Value {
	k := genIDKey{elem, seq}
	c.mu.RLock()
	v, ok := c.m[k]
	c.mu.RUnlock()
	if ok {
		return v
	}
	v = ordb.Str(elem + "#" + strconv.Itoa(seq))
	c.mu.Lock()
	if c.m == nil {
		c.m = map[genIDKey]ordb.Value{}
	}
	if len(c.m) < genIDCacheMax {
		c.m[k] = v
	}
	c.mu.Unlock()
	return v
}

// New returns a loader for the schema over the engine. The schema's DDL
// script must already have been executed against the engine's database.
func New(sch *mapping.Schema, en *sql.Engine) *Loader {
	return &Loader{sch: sch, en: en, refRows: len(sch.ObjectTables()) > 0}
}

// pendingRef is an IDREF whose target row does not exist yet; path is the
// index path from the row value slice to the REF slot (indexes descend
// through object attributes and collection elements).
type pendingRef struct {
	id   string
	path []int
}

// idrefFixup is a pendingRef bound to its row: an object-table row (table
// + oid) or, with table == "", the root-table row of the document.
type idrefFixup struct {
	table string
	oid   ordb.OID
	path  []int
	id    string
}

// load carries the state of loading one document.
type load struct {
	*Loader
	docID int
	// ids maps ID attribute values to the REF of the row carrying them
	// (Section 4.4 IDREF resolution).
	ids map[string]ordb.Ref
	// pending are forward IDREFs of the row currently being built.
	pending []pendingRef
	// fixups are pending refs bound to their rows, patched at the end.
	fixups []idrefFixup
	// genSeq numbers the generated ID values of StrategyRef.
	genSeq int
	// path is the shared index-path scratch: the slot the value currently
	// being built will occupy within its row. Only pendingRef stores a
	// path beyond the current call, and it clones first.
	path []int
	// strs interns the boxed Value form of short character data so a
	// document full of repeated attribute values and tags boxes each
	// distinct string once instead of once per occurrence.
	strs map[string]ordb.Value
	// recordDocID marks an engine-free Prepare pass: the DocID is not
	// known yet, so every FieldDocID slot emits a placeholder and records
	// its index path in docIDPaths for LoadPrepared to patch.
	recordDocID bool
	docIDPaths  [][]int
}

// strVal boxes s as an ordb.Value, reusing the box for short strings
// already seen in this document. Values are immutable engine-wide, so
// sharing one box across rows is safe.
func (st *load) strVal(s string) ordb.Value {
	if len(s) > 64 {
		return ordb.Str(s)
	}
	if v, ok := st.strs[s]; ok {
		return v
	}
	v := ordb.Value(ordb.Str(s))
	st.strs[s] = v
	return v
}

func (l *Loader) newLoad() *load {
	return &load{Loader: l, ids: map[string]ordb.Ref{}, strs: map[string]ordb.Value{}}
}

// Load stores the document and returns its DocID: Prepare followed by
// LoadPrepared, the one load path.
func (l *Loader) Load(doc *xmldom.Document, docName string) (int, error) {
	p, err := l.Prepare(doc)
	if err != nil {
		return 0, err
	}
	return l.LoadPrepared(doc, docName, p)
}

// LoadPrepared stores a prepared document and returns its DocID. The
// whole load — DocID allocation, meta registration, REF-row inserts, the
// root insert, IDREF fixups — runs in one engine transaction, so a
// failure at any step restores the exact prior state: no orphan rows, no
// dangling TabMetadata registration, no consumed OIDs. Inside an
// enclosing transaction RunInTx joins it through a savepoint, so the
// document still rolls back alone. doc must be the document p was
// prepared from; the call must run under the store's single-writer
// discipline.
func (l *Loader) LoadPrepared(doc *xmldom.Document, docName string, p *Prepared) (int, error) {
	rootTab, err := l.en.DB().Table(l.sch.RootTable)
	if err != nil {
		return 0, err
	}
	st := l.newLoad()
	err = l.en.DB().RunInTx(func() error {
		var err error
		if st.docID, err = l.allocDocID(rootTab); err != nil {
			return err
		}
		if l.Meta != nil {
			if err := l.Meta.Register(st.docID, doc, l.sch, docName, ""); err != nil {
				return err
			}
		}
		rowVals, err := st.rootRow(doc.Root(), p)
		if err != nil {
			return err
		}
		if _, err := rootTab.Insert(rowVals); err != nil {
			return err
		}
		// Pending refs remaining at this point live in the root row.
		for _, p := range st.pending {
			st.fixups = append(st.fixups, idrefFixup{table: "", path: p.path, id: p.id})
		}
		st.pending = nil
		return st.applyFixups()
	})
	if err != nil {
		return 0, err
	}
	return st.docID, nil
}

// allocDocID returns the next DocID: one more than the highest DocID
// stored — in TabMetadata when the meta-database is on (its DocID column
// is the primary key all schemas sharing the engine draw from), in the
// root table otherwise. The engine keeps that maximum as a cache over the
// rows (ordb.Table.MaxInt), so the answer costs no scan, yet it depends
// on stored state alone, never on loader memory: WAL replay and replicas
// rebuild a store from a snapshot plus the log and must re-derive exactly
// the DocIDs the log recorded, and no snapshot carries a counter. The ID
// of the newest document is therefore handed out again once that document
// is deleted; a live document's ID never is.
func (l *Loader) allocDocID(rootTab *ordb.Table) (int, error) {
	tab := rootTab
	if l.Meta != nil {
		var err error
		if tab, err = l.en.DB().Table("TabMetadata"); err != nil {
			return 0, err
		}
	}
	return tab.MaxInt(0) + 1, nil
}

// rootRow returns the document's root-table row under st.docID: the
// prepared fields with the DocID patched into every recorded slot, or —
// for a deferred Prepared — the shred itself, inserting the object-table
// rows the root row REFs as it goes.
func (st *load) rootRow(root *xmldom.Element, p *Prepared) ([]ordb.Value, error) {
	row := make([]ordb.Value, 1, len(p.fields)+1)
	row[0] = ordb.Num(st.docID)
	if !p.deferred {
		row = append(row, p.fields...)
		for _, path := range p.docIDPaths {
			var err error
			if row, err = patched(row, path, row[0]); err != nil {
				return nil, err
			}
		}
		return row, nil
	}
	rm := st.sch.Elems[root.Name]
	if rm.StoredByRef {
		ref, err := st.insertByRef(root, nil)
		if err != nil {
			return nil, err
		}
		return append(row, ref), nil
	}
	fields, err := st.buildVals(root, rm, nil, 1)
	if err != nil {
		return nil, err
	}
	return append(row, fields...), nil
}

// InsertSQL renders the single nested INSERT statement that loads the
// document — the artifact the paper shows in Sections 4.1 and 4.2. Only
// the nested strategy admits it; documents whose schema needs REF rows
// (recursion, ID targets) are loaded through the API instead.
func (l *Loader) InsertSQL(doc *xmldom.Document, docID int) (string, error) {
	if l.sch.Opts.Strategy != mapping.StrategyNested {
		return "", ErrRefStrategySQL
	}
	root := doc.Root()
	if root == nil {
		return "", fmt.Errorf("loader: document has no root element")
	}
	rm := l.sch.Elems[root.Name]
	if rm.StoredByRef || len(l.sch.ObjectTables()) > 0 {
		return "", ErrRefStrategySQL
	}
	st := l.newLoad()
	st.docID = docID
	vals, err := st.buildVals(root, rm, nil, 1)
	if err != nil {
		return "", err
	}
	sb := sqlBuilders.Get().(*strings.Builder)
	defer func() {
		sb.Reset()
		sqlBuilders.Put(sb)
	}()
	sb.WriteString("INSERT INTO ")
	sb.WriteString(l.sch.RootTable)
	sb.WriteString(" VALUES(")
	sb.WriteString(strconv.Itoa(docID))
	for _, v := range vals {
		sb.WriteString(", ")
		ordb.WriteSQL(sb, v)
	}
	sb.WriteByte(')')
	return sb.String(), nil
}

// sqlBuilders pools the builders InsertSQL renders into, so concurrent
// renders do not allocate a fresh builder each.
var sqlBuilders = sync.Pool{New: func() any { return new(strings.Builder) }}

// textContent returns the character data of an element including the
// expansions of entity references — the stored form Section 6.1 of the
// paper describes (entities are expanded at their occurrences).
func textContent(e *xmldom.Element) string {
	// Fast paths: the vast majority of simple elements hold zero children
	// or exactly one text node, neither of which needs a builder.
	kids := e.Children()
	if len(kids) == 0 {
		return ""
	}
	if len(kids) == 1 {
		if t, ok := kids[0].(*xmldom.Text); ok {
			return t.Data
		}
	}
	var sb strings.Builder
	var rec func(n xmldom.Node)
	rec = func(n xmldom.Node) {
		switch m := n.(type) {
		case *xmldom.Text:
			sb.WriteString(m.Data)
		case *xmldom.CDATA:
			sb.WriteString(m.Data)
		case *xmldom.EntityRef:
			sb.WriteString(m.Expansion)
		case *xmldom.Element:
			for _, c := range m.Children() {
				rec(c)
			}
		}
	}
	for _, c := range e.Children() {
		rec(c)
	}
	return sb.String()
}

// buildVals assembles the field values of el under mapping m. st.path
// holds the index path to the enclosing value slice; field i's value
// lives at slot start+i within it. The scratch is pushed and popped per
// field — only pendingRef retains a path, and it clones first.
func (st *load) buildVals(el *xmldom.Element, m *mapping.ElemMapping, parent ordb.Value, start int) ([]ordb.Value, error) {
	out := make([]ordb.Value, 0, len(m.Fields))
	for i, f := range m.Fields {
		st.path = append(st.path, start+i)
		v, err := st.fieldValue(el, m, f, parent)
		st.path = st.path[:len(st.path)-1]
		if err != nil {
			return nil, fmt.Errorf("element %s field %s: %w", el.Name, f.DBName, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// fieldValue computes one field's value; st.path addresses the slot the
// value will occupy within the enclosing row.
func (st *load) fieldValue(el *xmldom.Element, m *mapping.ElemMapping, f mapping.Field, parent ordb.Value) (ordb.Value, error) {
	switch f.Kind {
	case mapping.FieldDocID:
		if st.recordDocID {
			st.docIDPaths = append(st.docIDPaths, append([]int(nil), st.path...))
		}
		return ordb.Num(st.docID), nil
	case mapping.FieldGenID:
		st.genSeq++
		return st.genIDs.value(el.Name, st.genSeq), nil
	case mapping.FieldParentRef:
		if parent != nil && parentMatches(f.RefTarget, el) {
			return parent, nil
		}
		return ordb.Null{}, nil
	case mapping.FieldAttrList:
		return st.attrListValue(el, m)
	case mapping.FieldXMLAttr:
		if v, ok := el.Attr(f.XMLName); ok {
			return st.strVal(v), nil
		}
		return ordb.Null{}, nil
	case mapping.FieldIDRef:
		return st.idrefValue(el, f)
	case mapping.FieldPCDATA, mapping.FieldMixedText:
		if f.XMLName == el.Name {
			return st.strVal(textContent(el)), nil
		}
		return st.simpleChild(el, f)
	case mapping.FieldSimpleChild:
		return st.simpleChild(el, f)
	case mapping.FieldComplexChild:
		return st.complexChild(el, f)
	case mapping.FieldRefChild:
		return st.refChild(el, f)
	default:
		return nil, fmt.Errorf("loader: unhandled field kind %d", f.Kind)
	}
}

// parentMatches reports whether the actual parent element of el matches
// the declared REF target (multi-parent children carry one REF slot per
// possible parent; only the actual one is filled).
func parentMatches(target string, el *xmldom.Element) bool {
	p, ok := el.Parent().(*xmldom.Element)
	return ok && p.Name == target
}

func (st *load) idrefValue(el *xmldom.Element, f mapping.Field) (ordb.Value, error) {
	v, ok := el.Attr(f.XMLName)
	if !ok {
		return ordb.Null{}, nil
	}
	if ref, ok := st.ids[v]; ok {
		return ref, nil
	}
	// Forward reference: patched once the target row exists. The shared
	// path scratch is cloned — this is the one place a path outlives the
	// call that built it.
	st.pending = append(st.pending, pendingRef{id: v, path: append([]int(nil), st.path...)})
	return ordb.Null{}, nil
}

// attrListValue builds the TypeAttrL_ object for an element.
func (st *load) attrListValue(el *xmldom.Element, m *mapping.ElemMapping) (ordb.Value, error) {
	if len(m.AttrListFields) == 0 {
		return ordb.Null{}, nil
	}
	attrs := make([]ordb.Value, len(m.AttrListFields))
	for i, af := range m.AttrListFields {
		switch af.Kind {
		case mapping.FieldIDRef:
			st.path = append(st.path, i)
			v, err := st.idrefValue(el, af)
			st.path = st.path[:len(st.path)-1]
			if err != nil {
				return nil, err
			}
			attrs[i] = v
		default:
			if v, ok := el.Attr(af.XMLName); ok {
				attrs[i] = st.strVal(v)
			} else {
				attrs[i] = ordb.Null{}
			}
		}
	}
	return &ordb.Object{TypeName: m.AttrListTypeName, Attrs: attrs}, nil
}

// simpleChild maps (collections of) text-valued children.
func (st *load) simpleChild(el *xmldom.Element, f mapping.Field) (ordb.Value, error) {
	decl := st.sch.DTD.Element(f.XMLName)
	empty := decl != nil && decl.Content == dtd.EmptyContent
	if f.SetValued {
		var elems []ordb.Value
		for _, c := range el.Children() {
			if ce, ok := c.(*xmldom.Element); ok && ce.Name == f.XMLName {
				elems = append(elems, st.simpleValue(ce, empty))
			}
		}
		return &ordb.Coll{TypeName: f.TypeName, Elems: elems}, nil
	}
	if c := el.FirstChildNamed(f.XMLName); c != nil {
		return st.simpleValue(c, empty), nil
	}
	return ordb.Null{}, nil
}

func (st *load) simpleValue(c *xmldom.Element, empty bool) ordb.Value {
	if empty {
		return st.strVal("Y")
	}
	return st.strVal(textContent(c))
}

// complexChild maps (collections of) embedded object children.
func (st *load) complexChild(el *xmldom.Element, f mapping.Field) (ordb.Value, error) {
	cm := st.sch.Elems[f.XMLName]
	if f.SetValued {
		var elems []ordb.Value
		j := 0
		for _, c := range el.Children() {
			ce, ok := c.(*xmldom.Element)
			if !ok || ce.Name != f.XMLName {
				continue
			}
			st.path = append(st.path, j)
			vals, err := st.buildVals(ce, cm, nil, 0)
			st.path = st.path[:len(st.path)-1]
			if err != nil {
				return nil, err
			}
			elems = append(elems, &ordb.Object{TypeName: cm.TypeName, Attrs: vals})
			j++
		}
		return &ordb.Coll{TypeName: f.TypeName, Elems: elems}, nil
	}
	c := el.FirstChildNamed(f.XMLName)
	if c == nil {
		return ordb.Null{}, nil
	}
	vals, err := st.buildVals(c, cm, nil, 0)
	if err != nil {
		return nil, err
	}
	return &ordb.Object{TypeName: cm.TypeName, Attrs: vals}, nil
}

// refChild maps children stored in their own object tables: the value is
// a REF (or collection of REFs) to rows inserted recursively.
func (st *load) refChild(el *xmldom.Element, f mapping.Field) (ordb.Value, error) {
	if f.SetValued {
		var elems []ordb.Value
		for _, c := range el.Children() {
			ce, ok := c.(*xmldom.Element)
			if !ok || ce.Name != f.XMLName {
				continue
			}
			ref, err := st.insertByRef(ce, nil)
			if err != nil {
				return nil, err
			}
			elems = append(elems, ref)
		}
		return &ordb.Coll{TypeName: f.TypeName, Elems: elems}, nil
	}
	c := el.FirstChildNamed(f.XMLName)
	if c == nil {
		return ordb.Null{}, nil
	}
	return st.insertByRef(c, nil)
}

// insertByRef inserts the element (and recursively its subtree) into its
// object table and returns the REF to the new row. parent is the REF of
// the containing element's row for StrategyRef back-pointers.
func (st *load) insertByRef(el *xmldom.Element, parent ordb.Value) (ordb.Value, error) {
	m := st.sch.Elems[el.Name]
	if m == nil || m.ObjectTable == "" {
		return nil, fmt.Errorf("loader: element %s has no object table", el.Name)
	}
	tab, err := st.en.DB().Table(m.ObjectTable)
	if err != nil {
		return nil, err
	}
	// Pendings created while building this row belong to this row, and
	// paths restart at the new row's value slice. The tail of the shared
	// scratch is reused for the child row; the parent overwrites it again
	// after the recursion returns, so nothing leaks between rows.
	savedPending, savedPath := st.pending, st.path
	st.pending, st.path = nil, savedPath[len(savedPath):]
	vals, err := st.buildVals(el, m, parent, 0)
	if err != nil {
		st.pending, st.path = savedPending, savedPath
		return nil, err
	}
	myPending := st.pending
	st.pending, st.path = savedPending, savedPath
	oid, err := tab.Insert(vals)
	if err != nil {
		return nil, err
	}
	ref := ordb.Ref{Table: m.ObjectTable, OID: oid}
	// Boxed once: the rows of all its children store this same value.
	var refVal ordb.Value = ref
	if m.HasIDAttr != "" {
		if v, ok := el.Attr(m.HasIDAttr); ok {
			st.ids[v] = ref
		}
	}
	for _, p := range myPending {
		st.fixups = append(st.fixups, idrefFixup{table: m.ObjectTable, oid: oid, path: p.path, id: p.id})
	}
	// Children whose relationship lives in the child table (the Section
	// 4.2 Oracle 8 variant) are inserted after the parent so the back
	// REF resolves, in document order.
	decl := st.sch.DTD.Element(el.Name)
	if decl != nil {
		for _, refd := range decl.ChildRefs() {
			cm := st.sch.Elems[refd.Name]
			if cm == nil || !childLivesInChildTable(m, cm, refd.Name) {
				continue
			}
			for _, c := range el.Children() {
				ce, ok := c.(*xmldom.Element)
				if !ok || ce.Name != refd.Name {
					continue
				}
				if _, err := st.insertByRef(ce, refVal); err != nil {
					return nil, err
				}
			}
		}
	}
	return refVal, nil
}

// childLivesInChildTable reports the Section 4.2 variant: the child's
// type carries a parent REF back to this element type and the parent
// type has no field for the child.
func childLivesInChildTable(parent, child *mapping.ElemMapping, childName string) bool {
	if child.ObjectTable == "" {
		return false
	}
	for _, f := range parent.Fields {
		if f.XMLName == childName {
			return false // the parent holds the relationship
		}
	}
	for _, f := range child.Fields {
		if f.Kind == mapping.FieldParentRef && f.RefTarget == parent.Name {
			return true
		}
	}
	return false
}

// applyFixups patches forward IDREFs now that every row exists.
func (st *load) applyFixups() error {
	for _, fx := range st.fixups {
		ref, ok := st.ids[fx.id]
		if !ok {
			return fmt.Errorf("loader: IDREF %q does not match any ID in the document", fx.id)
		}
		if fx.table == "" {
			if err := st.patchRootRow(fx, ref); err != nil {
				return err
			}
			continue
		}
		tab, err := st.en.DB().Table(fx.table)
		if err != nil {
			return err
		}
		obj, err := st.en.DB().FetchByOID(fx.table, fx.oid)
		if err != nil {
			return err
		}
		vals, err := patched(obj.Attrs, fx.path, ref)
		if err != nil {
			return err
		}
		if err := tab.ReplaceByOID(fx.oid, vals); err != nil {
			return err
		}
	}
	return nil
}

func (st *load) patchRootRow(fx idrefFixup, ref ordb.Ref) error {
	rootTab, err := st.en.DB().Table(st.sch.RootTable)
	if err != nil {
		return err
	}
	var current []ordb.Value
	rootTab.Scan(func(r *ordb.Row) bool {
		if n, ok := r.Vals[0].(ordb.Num); ok && int(n) == st.docID {
			current = r.Vals
			return false
		}
		return true
	})
	if current == nil {
		return fmt.Errorf("loader: root row for document %d not found", st.docID)
	}
	vals, err := patched(current, fx.path, ref)
	if err != nil {
		return err
	}
	found, err := rootTab.ReplaceWhere(func(r *ordb.Row) bool {
		n, ok := r.Vals[0].(ordb.Num)
		return ok && int(n) == st.docID
	}, vals)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("loader: root row for document %d vanished", st.docID)
	}
	return nil
}

// patched returns a copy of vals with the value at the index path
// replaced; the path descends through object attributes and collection
// elements.
func patched(vals []ordb.Value, path []int, v ordb.Value) ([]ordb.Value, error) {
	out := make([]ordb.Value, len(vals))
	copy(out, vals)
	if len(path) == 0 {
		return nil, fmt.Errorf("loader: empty fixup path")
	}
	i := path[0]
	if i < 0 || i >= len(out) {
		return nil, fmt.Errorf("loader: fixup index %d out of range", i)
	}
	if len(path) == 1 {
		out[i] = v
		return out, nil
	}
	nv, err := patchedValue(out[i], path[1:], v)
	if err != nil {
		return nil, err
	}
	out[i] = nv
	return out, nil
}

func patchedValue(cur ordb.Value, path []int, v ordb.Value) (ordb.Value, error) {
	switch x := cur.(type) {
	case *ordb.Object:
		attrs, err := patched(x.Attrs, path, v)
		if err != nil {
			return nil, err
		}
		return &ordb.Object{TypeName: x.TypeName, Attrs: attrs}, nil
	case *ordb.Coll:
		elems, err := patched(x.Elems, path, v)
		if err != nil {
			return nil, err
		}
		return &ordb.Coll{TypeName: x.TypeName, Elems: elems}, nil
	default:
		return nil, fmt.Errorf("loader: fixup path descends into %T", cur)
	}
}
