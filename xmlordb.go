// Package xmlordb stores XML documents with a known schema (DTD) in an
// object-relational database, reproducing the XML2Oracle system of
// Kudrass & Conrad, "Management of XML Documents in Object-Relational
// Databases" (EDBT 2002 Workshops, LNCS 2490).
//
// The pipeline mirrors the paper's Fig. 1: an XML parser checks
// well-formedness and validity and builds a DOM tree; a DTD parser builds
// the DTD tree; the mapping layer (Section 4) generates an executable SQL
// script of object-relational DDL — object types, collection types,
// REF-valued attributes, constraints — which runs against the embedded
// object-relational engine; the loader turns each document into a single
// nested INSERT (or, under the Oracle 8 REF strategy, a set of REF-linked
// rows); and the retrieval layer reconstructs documents, restoring prolog
// and entity references from the meta-database of Section 5.
//
// Quick start:
//
//	store, err := xmlordb.Open(dtdText, "University", xmlordb.Config{})
//	docID, err := store.LoadXML(xmlText, "doc.xml")
//	rows, err := store.Query(`SELECT s.attrLName FROM TabUniversity u, ...`)
//	xml, err := store.RetrieveXML(docID)
package xmlordb

import (
	"fmt"
	"strings"
	"sync/atomic"

	"xmlordb/internal/dtd"
	"xmlordb/internal/loader"
	"xmlordb/internal/mapping"
	"xmlordb/internal/meta"
	"xmlordb/internal/ordb"
	"xmlordb/internal/retrieval"
	"xmlordb/internal/sql"
	"xmlordb/internal/template"
	"xmlordb/internal/xmldom"
	"xmlordb/internal/xmlparser"
	"xmlordb/internal/xpath"
	"xmlordb/internal/xsd"
)

// Re-exported strategy and mode constants.
const (
	// StrategyNested maps set-valued complex elements to nested
	// collection types (Oracle 9i, Section 4.2).
	StrategyNested = mapping.StrategyNested
	// StrategyRef decomposes complex elements into object tables linked
	// by REF attributes (the Oracle 8i workaround).
	StrategyRef = mapping.StrategyRef
	// ModeOracle8 enforces the Oracle 8 collection restrictions.
	ModeOracle8 = ordb.ModeOracle8
	// ModeOracle9 admits arbitrarily nested collections.
	ModeOracle9 = ordb.ModeOracle9
	// CollVarray selects VARRAY collection types (the paper's choice).
	CollVarray = mapping.CollVarray
	// CollNestedTable selects nested tables.
	CollNestedTable = mapping.CollNestedTable
)

// BackendMem names the one row store: rows resident in the MVCC engine.
//
// Deprecated: kept for the benchmark module; remove with the next
// [benchmark] PR.
const BackendMem = "mem"

// Config selects mapping and engine behaviour.
type Config struct {
	// Mode is the emulated DBMS version; defaults to ModeOracle9 (and to
	// ModeOracle8 when Strategy is StrategyRef).
	Mode ordb.Mode
	// ModeSet marks Mode as explicitly chosen.
	ModeSet bool
	// Strategy selects nested collections vs REF decomposition.
	Strategy mapping.Strategy
	// Collection selects VARRAY vs nested tables.
	Collection mapping.CollectionKind
	// VarrayMax, VarcharLen, SchemaID, InlineAttributes,
	// EmitNestedChecks, UseCLOBForText and IDRefTargets mirror
	// mapping.Options; zero values take the paper's defaults.
	VarrayMax        int
	VarcharLen       int
	SchemaID         string
	InlineAttributes bool
	EmitNestedChecks bool
	UseCLOBForText   bool
	IDRefTargets     map[string]string
	TypeHints        map[string]string
	// DisableMetadata turns off the Section 5 meta-database; round trips
	// then lose prolog and entity references (experiment E4).
	DisableMetadata bool
}

func (c Config) mode() ordb.Mode {
	if c.ModeSet {
		return c.Mode
	}
	if c.Strategy == StrategyRef {
		return ModeOracle8
	}
	return ModeOracle9
}

func (c Config) options() mapping.Options {
	return mapping.Options{
		Strategy:         c.Strategy,
		Collection:       c.Collection,
		VarrayMax:        c.VarrayMax,
		VarcharLen:       c.VarcharLen,
		SchemaID:         c.SchemaID,
		InlineAttributes: c.InlineAttributes,
		EmitNestedChecks: c.EmitNestedChecks,
		UseCLOBForText:   c.UseCLOBForText,
		IDRefTargets:     c.IDRefTargets,
		TypeHints:        c.TypeHints,
	}
}

// Store is one document store: a generated schema installed in an
// embedded object-relational database.
//
// Concurrency contract (MVCC): every commit publishes an immutable
// snapshot version of the engine state; ReadView returns a read-only
// Store facade over the latest published version whose queries,
// retrievals and XPath evaluations acquire no store- or engine-level
// lock at all — any number of goroutines may hold and use read views
// while a writer loads, deletes, or holds an open transaction
// underneath. A view is a consistent point in time: it never observes a
// partially loaded or partially deleted document, because versions are
// only published at commit boundaries.
//
// Methods called on the Store itself run against the live engine:
// read-only methods (Query, XPath, Retrieve, RetrieveXML, CacheStats,
// Script, Warnings) may also run concurrently with each other — shared
// engine state is internally synchronized — but they take the instance
// read lock and therefore queue behind an active writer; prefer
// ReadView for lock-free reads. Methods that mutate the store (Load,
// LoadXML, DeleteDocument, Exec with non-SELECT statements, OpenShared,
// Save) are NOT safe to run concurrently with each other; callers must
// serialize writers externally. The engine admits only one open
// transaction at a time (a second Begin fails with ErrTxActive), and
// RunInTx joins any transaction currently open — so a transaction must
// be confined to a single goroutine and writers excluded for its
// duration. Save additionally requires that no transaction is open.
// internal/server hosts Stores behind exactly this discipline:
// single-writer serialization with lock-free MVCC reads.
type Store struct {
	cfg       Config
	DTD       *dtd.DTD
	Tree      *dtd.Tree
	Schema    *mapping.Schema
	Engine    *sql.Engine
	Loader    *loader.Loader
	Retriever *retrieval.Retriever
	Meta      *meta.Store
	// wal, when non-nil, makes the store durable: committed changes are
	// redo-logged to a directory (see durable.go / OpenDir). It is an
	// atomic pointer because lock-free readers (STATS, ReadView) can
	// race with Close, which detaches it; load it once per operation.
	wal atomic.Pointer[walState]
	// ingest accumulates bulk-ingest counters for STATS (see bulk.go).
	ingest ingestCounters
}

// Open analyzes dtdText (the declarations of a DTD, without a DOCTYPE
// wrapper), generates the object-relational schema for the given root
// element (empty = the unique root candidate) and installs it in a fresh
// engine.
func Open(dtdText, root string, cfg Config) (*Store, error) {
	d, err := dtd.Parse(root, dtdText)
	if err != nil {
		return nil, err
	}
	return openDTDOn(nil, d, root, cfg)
}

// OpenXSD analyzes an XML Schema document instead of a DTD — the paper's
// Section 7 future-work path. Element and attribute types declared in the
// schema become typed columns (INTEGER, NUMBER, DATE, length-restricted
// VARCHAR) instead of the DTD's uniform VARCHAR(4000). Explicit TypeHints
// in cfg take precedence over schema-derived ones.
func OpenXSD(xsdText string, cfg Config) (*Store, error) {
	schema, err := xsd.Parse(xsdText)
	if err != nil {
		return nil, err
	}
	hints := map[string]string{}
	for k, v := range schema.TypeHints {
		hints[k] = v
	}
	for k, v := range cfg.TypeHints {
		hints[k] = v
	}
	cfg.TypeHints = hints
	return openDTDOn(nil, schema.DTD, schema.Root, cfg)
}

// OpenDocument opens a store from a document that carries its own DOCTYPE
// declaration, then loads that document. It returns the store and the
// DocID of the loaded document. IDREF attribute targets that the DTD
// cannot express are inferred from the document itself (Section 4.4);
// explicit Config.IDRefTargets entries take precedence.
func OpenDocument(xmlText, docName string, cfg Config) (*Store, int, error) {
	res, err := xmlparser.Parse(xmlText)
	if err != nil {
		return nil, 0, err
	}
	if res.DTD == nil {
		return nil, 0, fmt.Errorf("xmlordb: document has no DTD; use Open with an explicit DTD")
	}
	inferred := mapping.InferIDRefTargets(res.DTD, res.Doc)
	if len(inferred) > 0 {
		merged := map[string]string{}
		for k, v := range inferred {
			merged[k] = v
		}
		for k, v := range cfg.IDRefTargets {
			merged[k] = v
		}
		cfg.IDRefTargets = merged
	}
	s, err := openDTDOn(nil, res.DTD, res.Doc.Root().Name, cfg)
	if err != nil {
		return nil, 0, err
	}
	id, err := s.Load(res.Doc, docName)
	if err != nil {
		return nil, 0, err
	}
	return s, id, nil
}

// OpenShared installs a schema for another document type into an existing
// store's database, so documents of several DTDs coexist in one engine.
// When both stores would generate colliding names, disambiguate them with
// distinct Config.SchemaID values — the exact purpose of the Section 5
// schema identifier ("SchemaIDs are necessary to deal with identical
// element names from different DTDs").
func OpenShared(base *Store, dtdText, root string, cfg Config) (*Store, error) {
	if base.wal.Load() != nil {
		return nil, fmt.Errorf("xmlordb: OpenShared on a durable store is not supported (schema installation bypasses the WAL)")
	}
	d, err := dtd.Parse(root, dtdText)
	if err != nil {
		return nil, err
	}
	return openDTDOn(base.Engine, d, root, cfg)
}

// openDTDOn generates the schema of d for root and installs it in en, or
// in a fresh engine when en is nil.
func openDTDOn(en *sql.Engine, d *dtd.DTD, root string, cfg Config) (*Store, error) {
	s, err := schemaStore(d, root, cfg)
	if err != nil {
		return nil, err
	}
	if en == nil {
		en = sql.NewEngine(ordb.New(cfg.mode()))
	}
	if _, err := en.ExecScript(s.Schema.Script()); err != nil {
		return nil, fmt.Errorf("xmlordb: executing generated schema: %w", err)
	}
	if err := s.attach(en); err != nil {
		return nil, err
	}
	return s, nil
}

// schemaStore is the store of d's mapping for root, without an engine.
// Generation is deterministic, so a schema regenerates from its DTD.
func schemaStore(d *dtd.DTD, root string, cfg Config) (*Store, error) {
	tree, err := dtd.BuildTree(d, root)
	if err != nil {
		return nil, err
	}
	sch, err := mapping.Generate(tree, cfg.options())
	if err != nil {
		return nil, err
	}
	return &Store{cfg: cfg, DTD: d, Tree: tree, Schema: sch}, nil
}

// attach binds the store to en, whose catalog holds the store's schema:
// the loader, the retriever and, unless disabled, the meta-database
// (installed, or attached when TabMetadata exists).
func (s *Store) attach(en *sql.Engine) error {
	s.Engine = en
	s.Loader = loader.New(s.Schema, en)
	s.Retriever = retrieval.New(s.Schema, en)
	if s.cfg.DisableMetadata {
		return nil
	}
	store, err := meta.Install(en)
	if err != nil {
		return err
	}
	s.Meta, s.Loader.Meta, s.Retriever.Meta = store, store, store
	return nil
}

// Script returns the generated DDL script (Section 4: "This script can be
// executed afterwards without any modification").
func (s *Store) Script() string { return s.Schema.Script() }

// Warnings lists information-loss notes from schema generation.
func (s *Store) Warnings() []string { return s.Schema.Warnings }

// Load validates the document against the store's DTD and loads it,
// returning its DocID: prepare followed by LoadPrepared (bulk.go). On a
// durable store the document is serialized back to XML for the redo
// record — prefer LoadXML when the original text is at hand, so the log
// keeps it byte-for-byte.
func (s *Store) Load(doc *xmldom.Document, docName string) (int, error) {
	p, err := s.prepare(doc, docName, "")
	if err != nil {
		return 0, err
	}
	return s.LoadPrepared(p)
}

// LoadXML parses, validates and loads an XML document given as text:
// PrepareXML followed by LoadPrepared.
func (s *Store) LoadXML(xmlText, docName string) (int, error) {
	p, err := s.PrepareXML(xmlText, docName)
	if err != nil {
		return 0, err
	}
	return s.LoadPrepared(p)
}

// InsertSQL renders the single nested INSERT statement for a document
// (nested strategy only).
func (s *Store) InsertSQL(doc *xmldom.Document, docID int) (string, error) {
	return s.Loader.InsertSQL(doc, docID)
}

// Retrieve reconstructs a stored document.
func (s *Store) Retrieve(docID int) (*xmldom.Document, error) {
	return s.Retriever.Document(docID)
}

// RetrieveXML reconstructs a stored document as XML text.
func (s *Store) RetrieveXML(docID int) (string, error) {
	doc, err := s.Retriever.Document(docID)
	if err != nil {
		return "", err
	}
	return xmldom.SerializeWith(doc, xmldom.SerializeOptions{Indent: "  "}), nil
}

// Query runs a SELECT against the store.
func (s *Store) Query(sqlText string) (*sql.Rows, error) { return s.Engine.Query(sqlText) }

// XPath translates an absolute XPath (child steps with attribute/value
// predicates) into SQL over the generated schema and runs it — the
// Section 7 "tight correspondence with XPath expressions" made concrete.
// It returns the rows and the SQL the path translated to.
func (s *Store) XPath(path string) (*sql.Rows, string, error) {
	stmt, err := xpath.Translate(s.Schema, path)
	if err != nil {
		return nil, "", err
	}
	rows, err := s.Engine.Query(stmt)
	if err != nil {
		return nil, stmt, err
	}
	return rows, stmt, nil
}

// Exec runs a non-query statement against the store. On a durable store
// a successful DML statement is logged for redo (buffered until COMMIT
// inside an explicit transaction); DDL, which auto-commits, is logged
// immediately. Publication is held across the statement and its append,
// so readers see an autocommitted change only once its record is in the
// log.
func (s *Store) Exec(sqlText string) (*sql.Result, error) {
	w := s.wal.Load()
	if w == nil || !walWorthySQL(sqlText) {
		return s.Engine.Exec(sqlText)
	}
	db := s.Engine.DB()
	db.SuspendPublish()
	defer db.ResumePublish()
	res, err := s.Engine.Exec(sqlText)
	if err != nil {
		return res, err
	}
	if err := w.record(RecSQL, walSQLPayload{SQL: sqlText}); err != nil {
		return res, fmt.Errorf("xmlordb: statement executed but not logged: %w", err)
	}
	return res, nil
}

// DB exposes the underlying engine database (for stats and inspection).
func (s *Store) DB() *ordb.DB { return s.Engine.DB() }

// ReadView returns a read-only Store facade over the most recently
// published MVCC version of the engine state. Query, XPath, Retrieve,
// RetrieveXML, Save, SnapshotRows-based serialization and the metadata
// lookups all work on the view and acquire no store- or engine-level
// lock — the version is immutable, so any number of goroutines can read
// it while writers commit new versions underneath. The view is pinned:
// call ReadView again to observe later commits. Mutating methods on a
// view fail with ordb.ErrFrozen; Load/Delete are unavailable (no
// loader). On a store whose engine has no published version yet (never
// the case for stores built by Open and friends), the live store is
// returned.
func (s *Store) ReadView() *Store {
	rdb := s.Engine.DB().Reader()
	if rdb == s.Engine.DB() {
		return s
	}
	ren := s.Engine.Reader()
	rv := &Store{
		cfg:       s.cfg,
		DTD:       s.DTD,
		Tree:      s.Tree,
		Schema:    s.Schema,
		Engine:    ren,
		Retriever: retrieval.New(s.Schema, ren),
	}
	rv.wal.Store(s.wal.Load())
	if s.Meta != nil {
		rv.Meta = s.Meta.Reader(ren)
		rv.Retriever.Meta = rv.Meta
	}
	return rv
}

// VersionLSN reports the WAL position covered by the published MVCC
// version (on a ReadView: the version it is pinned to). Zero for
// in-memory stores without an attached log.
func (s *Store) VersionLSN() uint64 { return s.Engine.DB().VersionLSN() }

// CacheStats reports statement- and plan-cache effectiveness for the
// store's engine (see the README section "Indexes, caching, and the hot
// path").
func (s *Store) CacheStats() sql.CacheStats { return s.Engine.CacheStats() }

// ExpandTemplate runs the embedded <?xmlordb-query ...?> instructions of
// an XML template against the store and returns the expanded document —
// the template-driven export procedure of Section 6.3.
func (s *Store) ExpandTemplate(templateXML string) (string, error) {
	return template.Expand(s.Schema, s.Engine, templateXML)
}

// Fidelity compares an original document with its stored round trip.
func (s *Store) Fidelity(original *xmldom.Document, docID int) (*retrieval.FidelityReport, error) {
	restored, err := s.Retriever.Document(docID)
	if err != nil {
		return nil, err
	}
	return retrieval.Fidelity(original, restored), nil
}

// DescribeSchema renders a human-readable summary of the generated
// schema: the DTD tree, the catalog objects and any warnings.
func (s *Store) DescribeSchema() string {
	var sb strings.Builder
	sb.WriteString("DTD tree (" + s.Tree.Root.Name + "):\n")
	sb.WriteString(s.Tree.String())
	types, tables, views, storage := s.DB().SchemaObjectCount()
	fmt.Fprintf(&sb, "\nCatalog: %d types, %d tables, %d views, %d storage tables\n",
		types, tables, views, storage)
	fmt.Fprintf(&sb, "Root table: %s\n", s.Schema.RootTable)
	if len(s.Tree.RecursiveNames) > 0 {
		fmt.Fprintf(&sb, "Recursive elements (REF-stored): %v\n", s.Tree.RecursiveNames)
	}
	if len(s.Tree.MultiParent) > 0 {
		fmt.Fprintf(&sb, "Multi-parent elements (Fig. 3): %v\n", s.Tree.MultiParent)
	}
	for _, w := range s.Schema.Warnings {
		sb.WriteString("warning: " + w + "\n")
	}
	return sb.String()
}

// ParseXML parses an XML document (exported convenience for store users).
func ParseXML(src string) (*xmldom.Document, *dtd.DTD, error) {
	res, err := xmlparser.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	return res.Doc, res.DTD, nil
}
