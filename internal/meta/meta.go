// Package meta implements the meta-data structures of Section 5 of the
// paper. XML2Oracle maintains a meta-table, TabMetadata, that assigns
// every stored document a unique DocID and records document name, URL,
// schema identifier, namespace, prolog information (XML version,
// character set, standalone), and — per generated database object — a
// DocData entry stating whether a database attribute was derived from an
// XML element or an XML attribute, with its database name and type.
//
// Following the Section 6.1 proposal, the store also keeps the internal
// entity definitions of the DTD (reference name and substitution text) so
// that the retrieval layer can restore the original entity references
// that the parser expanded.
package meta

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"xmlordb/internal/mapping"
	"xmlordb/internal/ordb"
	"xmlordb/internal/sql"
	"xmlordb/internal/xmldom"
)

// SchemaSQL is the DDL of the meta-database, executed once per database.
const SchemaSQL = `
CREATE TYPE Type_DocData AS OBJECT(
	XML_Type VARCHAR(16),
	XML_Name VARCHAR(256),
	DB_Name VARCHAR(30),
	DB_Type VARCHAR(64),
	NameSpace VARCHAR(256));

CREATE TYPE TypeVA_DocData AS VARRAY(1000) OF Type_DocData;

CREATE TYPE Type_Entity AS OBJECT(
	EntityName VARCHAR(256),
	Substitution VARCHAR(4000));

CREATE TYPE TypeVA_Entity AS VARRAY(256) OF Type_Entity;

CREATE TABLE TabMetadata(
	DocID INTEGER PRIMARY KEY,
	DocName VARCHAR(256),
	URL VARCHAR(1024),
	SchemaID VARCHAR(64),
	NameSpace VARCHAR(256),
	XMLVersion VARCHAR(8),
	CharacterSet VARCHAR(32),
	Standalone CHAR(3),
	DocData TypeVA_DocData,
	Entities TypeVA_Entity,
	DocDate DATE);
`

// ErrNoSuchDocument reports a DocID without a TabMetadata entry.
var ErrNoSuchDocument = errors.New("meta: no such document")

// DocData is one provenance entry: where a database object came from.
type DocData struct {
	// XMLType is "element" or "attribute" — the distinction the
	// object-relational mapping loses without meta-data (Section 5).
	XMLType string
	// XMLName is the source element or attribute name.
	XMLName string
	// DBName and DBType describe the generated database attribute.
	DBName string
	DBType string
	// Namespace of the source name, if any.
	Namespace string
}

// Entity is one internal entity definition captured from the DTD.
type Entity struct {
	Name         string
	Substitution string
}

// Document is the meta record of one stored document.
type Document struct {
	DocID        int
	DocName      string
	URL          string
	SchemaID     string
	Namespace    string
	XMLVersion   string
	CharacterSet string
	Standalone   string
	Data         []DocData
	Entities     []Entity
	Date         time.Time
}

// Store manages the meta-database inside an engine.
type Store struct {
	en *sql.Engine
	// Now supplies timestamps (injectable for reproducible tests).
	Now func() time.Time

	// constMu guards consts, the collections of the last schema registered
	// against (a store registers documents of one schema).
	constMu sync.Mutex
	consts  schemaConsts
}

// Install creates the meta schema in the database (idempotent: a second
// call on the same database fails with ErrExists, which is reported).
func Install(en *sql.Engine) (*Store, error) {
	if _, err := en.DB().Table("TabMetadata"); err == nil {
		return &Store{en: en, Now: time.Now}, nil
	}
	if _, err := en.ExecScript(SchemaSQL); err != nil {
		return nil, fmt.Errorf("meta: installing schema: %w", err)
	}
	return &Store{en: en, Now: time.Now}, nil
}

// Reader returns a Store bound to en — used to rebind metadata lookups
// to a read-only engine over a published MVCC version. The clock is
// shared with the parent (reads never consult it).
func (s *Store) Reader(en *sql.Engine) *Store {
	return &Store{en: en, Now: s.Now}
}

// Register records a document under docID, with its mapping provenance.
// The caller (the loader's DocID allocator) chooses the ID; DocID is the
// table's primary key, so a collision fails the insert. The DocData
// entries and entity definitions are the schema's (see schemaConsts).
func (s *Store) Register(docID int, doc *xmldom.Document, sch *mapping.Schema, docName, url string) error {
	tab, err := s.en.DB().Table("TabMetadata")
	if err != nil {
		return err
	}
	consts := s.constsFor(sch)
	// A document-level default namespace, when declared (and admitted by
	// the DTD's attribute list), is recorded per Section 5.
	var namespace ordb.Value = ordb.Null{}
	if root := doc.Root(); root != nil {
		if ns, ok := root.Attr("xmlns"); ok {
			namespace = ordb.Str(ns)
		}
	}
	vals := []ordb.Value{
		ordb.Num(docID),
		ordb.Str(docName),
		ordb.Str(url),
		ordb.Str(sch.Opts.SchemaID),
		namespace,
		strOrNull(doc.Version),
		strOrNull(doc.Encoding),
		strOrNull(doc.Standalone),
		consts.docData,
		consts.entities,
		ordb.DateVal(s.Now()),
	}
	if _, err := tab.Insert(vals); err != nil {
		return fmt.Errorf("meta: registering document: %w", err)
	}
	return nil
}

// schemaConsts are the TabMetadata column values that depend on the
// schema alone: the DocData provenance entries and the DTD's internal
// entity definitions. They are built once per schema and every document's
// row stores the same immutable values — engine values are never mutated
// in place (an UPDATE swaps in new ones), and Insert's conform pass keeps
// an already-conformant composite as is.
type schemaConsts struct {
	sch               *mapping.Schema
	docData, entities ordb.Value
}

func buildSchemaConsts(sch *mapping.Schema) schemaConsts {
	var docData []ordb.Value
	for _, name := range sch.Order {
		m := sch.Elems[name]
		for _, f := range m.Fields {
			if dd := fieldDocData(f); dd != nil {
				docData = append(docData, dd)
			}
		}
		for _, f := range m.AttrListFields {
			if dd := fieldDocData(f); dd != nil {
				docData = append(docData, dd)
			}
		}
	}
	var entities []ordb.Value
	for _, name := range sch.DTD.EntityOrder {
		e := sch.DTD.Entities[name]
		if e.External() {
			continue
		}
		entities = append(entities, &ordb.Object{TypeName: "Type_Entity", Attrs: []ordb.Value{
			ordb.Str(e.Name), ordb.Str(e.Value),
		}})
	}
	return schemaConsts{
		sch:      sch,
		docData:  &ordb.Coll{TypeName: "TypeVA_DocData", Elems: docData},
		entities: &ordb.Coll{TypeName: "TypeVA_Entity", Elems: entities},
	}
}

// constsFor returns the schema's constant column values, building them on
// first use.
func (s *Store) constsFor(sch *mapping.Schema) schemaConsts {
	s.constMu.Lock()
	defer s.constMu.Unlock()
	if s.consts.sch != sch {
		s.consts = buildSchemaConsts(sch)
	}
	return s.consts
}

func strOrNull(s string) ordb.Value {
	if s == "" {
		return ordb.Null{}
	}
	return ordb.Str(s)
}

// fieldDocData classifies one generated field for the DocData array.
func fieldDocData(f mapping.Field) ordb.Value {
	var xmlType string
	switch f.Kind {
	case mapping.FieldXMLAttr, mapping.FieldIDRef:
		xmlType = "attribute"
	case mapping.FieldSimpleChild, mapping.FieldComplexChild, mapping.FieldRefChild,
		mapping.FieldPCDATA, mapping.FieldMixedText:
		xmlType = "element"
	default:
		return nil // generated fields have no XML source
	}
	dbType := f.TypeName
	if dbType == "" {
		dbType = "VARCHAR"
	}
	return &ordb.Object{TypeName: "Type_DocData", Attrs: []ordb.Value{
		ordb.Str(xmlType), ordb.Str(f.XMLName), ordb.Str(f.DBName), ordb.Str(dbType), ordb.Null{},
	}}
}

// Document fetches the meta record for a DocID.
func (s *Store) Document(docID int) (*Document, error) {
	tab, err := s.en.DB().Table("TabMetadata")
	if err != nil {
		return nil, err
	}
	row := DocRow(tab, docID)
	if row == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchDocument, docID)
	}
	return decodeDocument(row.Vals), nil
}

// Documents lists all registered documents in DocID order.
func (s *Store) Documents() ([]*Document, error) {
	tab, err := s.en.DB().Table("TabMetadata")
	if err != nil {
		return nil, err
	}
	var out []*Document
	tab.Scan(func(r *ordb.Row) bool {
		if _, ok := r.Vals[0].(ordb.Num); ok {
			out = append(out, decodeDocument(r.Vals))
		}
		return true
	})
	return out, nil
}

// DocRow returns document docID's row in a table keyed by a leading
// DocID column — TabMetadata or a generated root table — or nil when
// there is none. It probes the DocID index and scans only when that
// index was dropped.
func DocRow(tab *ordb.Table, docID int) *ordb.Row {
	if rows, ok := tab.ProbeEqual("DocID", ordb.Num(docID)); ok {
		if len(rows) == 0 {
			return nil
		}
		return rows[0]
	}
	var found *ordb.Row
	tab.Scan(func(row *ordb.Row) bool {
		if n, ok := row.Vals[0].(ordb.Num); ok && int(n) == docID {
			found = row
		}
		return found == nil
	})
	return found
}

// decodeDocument builds the meta record from a TabMetadata row.
func decodeDocument(vals []ordb.Value) *Document {
	doc := &Document{
		DocID:        int(vals[0].(ordb.Num)),
		DocName:      str(vals[1]),
		URL:          str(vals[2]),
		SchemaID:     str(vals[3]),
		Namespace:    str(vals[4]),
		XMLVersion:   str(vals[5]),
		CharacterSet: str(vals[6]),
		Standalone:   strings.TrimRight(str(vals[7]), " "), // CHAR(3) is blank-padded
	}
	if c, ok := vals[8].(*ordb.Coll); ok {
		for _, e := range c.Elems {
			o := e.(*ordb.Object)
			doc.Data = append(doc.Data, DocData{
				XMLType:   str(o.Attrs[0]),
				XMLName:   str(o.Attrs[1]),
				DBName:    str(o.Attrs[2]),
				DBType:    str(o.Attrs[3]),
				Namespace: str(o.Attrs[4]),
			})
		}
	}
	if c, ok := vals[9].(*ordb.Coll); ok {
		for _, e := range c.Elems {
			o := e.(*ordb.Object)
			doc.Entities = append(doc.Entities, Entity{
				Name:         str(o.Attrs[0]),
				Substitution: str(o.Attrs[1]),
			})
		}
	}
	if d, ok := vals[10].(ordb.DateVal); ok {
		doc.Date = time.Time(d)
	}
	return doc
}

func str(v ordb.Value) string {
	if s, ok := v.(ordb.Str); ok {
		return string(s)
	}
	return ""
}
