package loader

import (
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"

	"xmlordb/internal/dtd"
	"xmlordb/internal/mapping"
	"xmlordb/internal/meta"
	"xmlordb/internal/ordb"
	"xmlordb/internal/sql"
	"xmlordb/internal/xmldom"
	"xmlordb/internal/xmlparser"
)

// appendixA is the paper's sample document with instance data.
const appendixA = `<?xml version="1.0" encoding="UTF-8"?>
<!DOCTYPE University [
<!ELEMENT University (StudyCourse,Student*)>
<!ELEMENT Student (LName,FName,Course*)>
<!ATTLIST Student StudNr CDATA #REQUIRED>
<!ELEMENT Course (Name,Professor*,CreditPts?)>
<!ELEMENT Professor (PName,Subject+,Dept)>
<!ENTITY cs "Computer Science">
<!ELEMENT LName (#PCDATA)>
<!ELEMENT FName (#PCDATA)>
<!ELEMENT Name (#PCDATA)>
<!ELEMENT PName (#PCDATA)>
<!ELEMENT Subject (#PCDATA)>
<!ELEMENT Dept (#PCDATA)>
<!ELEMENT StudyCourse (#PCDATA)>
<!ELEMENT CreditPts (#PCDATA)>
]>
<University>
  <StudyCourse>&cs;</StudyCourse>
  <Student StudNr="23374">
    <LName>Conrad</LName>
    <FName>Matthias</FName>
    <Course>
      <Name>Database Systems II</Name>
      <Professor>
        <PName>Kudrass</PName>
        <Subject>Database Systems</Subject>
        <Subject>Operat. Systems</Subject>
        <Dept>&cs;</Dept>
      </Professor>
      <CreditPts>4</CreditPts>
    </Course>
    <Course>
      <Name>CAD Intro</Name>
      <Professor>
        <PName>Jaeger</PName>
        <Subject>CAD</Subject>
        <Subject>CAE</Subject>
        <Dept>&cs;</Dept>
      </Professor>
      <CreditPts>4</CreditPts>
    </Course>
  </Student>
  <Student StudNr="00011">
    <LName>Meier</LName>
    <FName>Ralf</FName>
  </Student>
</University>`

// setup parses the document, generates and installs the schema, and
// returns document, schema, engine and loader.
func setup(t *testing.T, src string, opts mapping.Options, mode ordb.Mode) (*xmldom.Document, *mapping.Schema, *sql.Engine, *Loader) {
	t.Helper()
	res, err := xmlparser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	tree, err := dtd.BuildTree(res.DTD, res.Doc.Root().Name)
	if err != nil {
		t.Fatalf("tree: %v", err)
	}
	sch, err := mapping.Generate(tree, opts)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	en := sql.NewEngine(ordb.New(mode))
	if _, err := en.ExecScript(sch.Script()); err != nil {
		t.Fatalf("schema script: %v\n%s", err, sch.Script())
	}
	return res.Doc, sch, en, New(sch, en)
}

func TestLoadAppendixANested(t *testing.T) {
	doc, sch, en, l := setup(t, appendixA, mapping.Options{}, ordb.ModeOracle9)
	docID, err := l.Load(doc, "appendixA.xml")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if docID != 1 {
		t.Errorf("docID = %d", docID)
	}
	// The headline claim: the whole document needed exactly ONE INSERT.
	if got := en.DB().Stats().Inserts; got != 1 {
		t.Errorf("inserts = %d, want 1 (single nested INSERT)", got)
	}
	// Query it back with the paper's style of dot/TABLE navigation.
	rows, err := en.Query(`
		SELECT st.attrLName
		FROM ` + sch.RootTable + ` u, TABLE(u.attrStudent) st,
		     TABLE(st.attrCourse) c, TABLE(c.attrProfessor) p
		WHERE p.attrPName = 'Jaeger'`)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(rows.Data) != 1 || rows.Data[0][0] != ordb.Str("Conrad") {
		t.Errorf("Jaeger query = %v", rows.Data)
	}
	// The entity expansion was stored (Section 6.1).
	rows2, _ := en.Query(`SELECT u.attrStudyCourse FROM ` + sch.RootTable + ` u`)
	if rows2.Data[0][0] != ordb.Str("Computer Science") {
		t.Errorf("entity not expanded: %v", rows2.Data[0][0])
	}
}

func TestLoadAppendixARefStrategy(t *testing.T) {
	doc, _, en, l := setup(t, appendixA, mapping.Options{Strategy: mapping.StrategyRef}, ordb.ModeOracle8)
	if _, err := l.Load(doc, "appendixA.xml"); err != nil {
		t.Fatalf("Load: %v", err)
	}
	// Under Oracle 8 the document decomposes: University + 2 Students +
	// 2 Courses + 2 Professors + 1 doc row = 8 insertions.
	if got := en.DB().Stats().Inserts; got != 8 {
		t.Errorf("inserts = %d, want 8 (decomposed load)", got)
	}
	// Children are linked to parents by REF: count Jaeger's courses.
	profTab, err := en.DB().Table("TabProfessor")
	if err != nil {
		t.Fatal(err)
	}
	if profTab.RowCount() != 2 {
		t.Errorf("professor rows = %d", profTab.RowCount())
	}
	studTab, _ := en.DB().Table("TabStudent")
	if studTab.RowCount() != 2 {
		t.Errorf("student rows = %d", studTab.RowCount())
	}
}

func TestInsertSQLMatchesAPILoad(t *testing.T) {
	doc, sch, en, l := setup(t, appendixA, mapping.Options{}, ordb.ModeOracle9)
	stmt, err := l.InsertSQL(doc, 1)
	if err != nil {
		t.Fatalf("InsertSQL: %v", err)
	}
	for _, want := range []string{
		"INSERT INTO TabUniversity VALUES(1, 'Computer Science'",
		"TypeVA_Student(",
		"Type_Student(",
		"TypeVA_Subject('Database Systems', 'Operat. Systems')",
		"Type_Course('CAD Intro'",
	} {
		if !strings.Contains(stmt, want) {
			t.Errorf("InsertSQL missing %q:\n%s", want, stmt)
		}
	}
	// The generated text executes and produces the same row as Load.
	if _, err := en.Exec(stmt); err != nil {
		t.Fatalf("generated INSERT does not execute: %v\n%s", err, stmt)
	}
	if _, err := l.Load(doc, "again"); err != nil {
		t.Fatalf("Load: %v", err)
	}
	tab, _ := en.DB().Table(sch.RootTable)
	if tab.RowCount() != 2 {
		t.Fatalf("rows = %d", tab.RowCount())
	}
	var rows []*ordb.Row
	tab.Scan(func(r *ordb.Row) bool { rows = append(rows, r); return true })
	// Ignore the DocID column; the payloads must be identical.
	for i := 1; i < len(rows[0].Vals); i++ {
		if !ordb.DeepEqual(rows[0].Vals[i], rows[1].Vals[i]) {
			t.Errorf("column %d differs between SQL and API load", i)
		}
	}
}

func TestInsertSQLRefusedForRefStrategy(t *testing.T) {
	doc, _, _, l := setup(t, appendixA, mapping.Options{Strategy: mapping.StrategyRef}, ordb.ModeOracle8)
	if _, err := l.InsertSQL(doc, 1); !errors.Is(err, ErrRefStrategySQL) {
		t.Errorf("InsertSQL = %v, want ErrRefStrategySQL", err)
	}
}

func TestLoadWithMetadata(t *testing.T) {
	doc, sch, en, l := setup(t, appendixA, mapping.Options{}, ordb.ModeOracle9)
	store, err := meta.Install(en)
	if err != nil {
		t.Fatalf("meta install: %v", err)
	}
	l.Meta = store
	docID, err := l.Load(doc, "appendixA.xml")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	md, err := store.Document(docID)
	if err != nil {
		t.Fatalf("meta lookup: %v", err)
	}
	if md.DocName != "appendixA.xml" || md.XMLVersion != "1.0" || md.CharacterSet != "UTF-8" {
		t.Errorf("meta = %+v", md)
	}
	// Entity definitions captured (Section 6.1).
	if len(md.Entities) != 1 || md.Entities[0].Name != "cs" || md.Entities[0].Substitution != "Computer Science" {
		t.Errorf("entities = %+v", md.Entities)
	}
	// DocData distinguishes element- from attribute-derived columns.
	var elemCount, attrCount int
	for _, dd := range md.Data {
		switch dd.XMLType {
		case "element":
			elemCount++
		case "attribute":
			attrCount++
		}
	}
	if elemCount == 0 || attrCount == 0 {
		t.Errorf("DocData = %d elements, %d attributes", elemCount, attrCount)
	}
	// The attribute entry records the mapping of StudNr.
	found := false
	for _, dd := range md.Data {
		if dd.XMLName == "StudNr" && dd.XMLType == "attribute" && dd.DBName == "attrStudNr" {
			found = true
		}
	}
	if !found {
		t.Errorf("StudNr provenance missing: %+v", md.Data)
	}
	_ = sch
}

func TestLoadRejectsWrongRoot(t *testing.T) {
	doc, _, _, l := setup(t, appendixA, mapping.Options{}, ordb.ModeOracle9)
	wrong := xmldom.NewDocument()
	wrong.AppendChild(xmldom.NewElement("Other"))
	if _, err := l.Load(wrong, "x"); err == nil {
		t.Error("wrong root accepted")
	}
	_ = doc
}

const recursiveDoc = `<!DOCTYPE Professor [
<!ELEMENT Professor (PName,Dept)>
<!ELEMENT Dept (DName,Professor*)>
<!ELEMENT PName (#PCDATA)>
<!ELEMENT DName (#PCDATA)>
]>
<Professor>
  <PName>Kudrass</PName>
  <Dept>
    <DName>Computer Science</DName>
    <Professor>
      <PName>Jaeger</PName>
      <Dept><DName>CAD Lab</DName></Dept>
    </Professor>
    <Professor>
      <PName>Meier</PName>
      <Dept><DName>DB Lab</DName></Dept>
    </Professor>
  </Dept>
</Professor>`

func TestLoadRecursiveDocument(t *testing.T) {
	doc, sch, en, l := setup(t, recursiveDoc, mapping.Options{}, ordb.ModeOracle9)
	if _, err := l.Load(doc, "prof.xml"); err != nil {
		t.Fatalf("Load: %v", err)
	}
	// Three professors as rows (REF-stored because recursive), one doc row.
	profs, err := en.DB().Table("TabProfessor")
	if err != nil {
		t.Fatal(err)
	}
	if profs.RowCount() != 3 {
		t.Errorf("professor rows = %d, want 3", profs.RowCount())
	}
	docTab, _ := en.DB().Table(sch.RootTable)
	if docTab.RowCount() != 1 {
		t.Errorf("doc rows = %d", docTab.RowCount())
	}
}

const idrefDoc = `<!DOCTYPE Library [
<!ELEMENT Library (Book*,Author*)>
<!ELEMENT Book (Title)>
<!ATTLIST Book writer IDREF #REQUIRED>
<!ELEMENT Author (AName)>
<!ATTLIST Author key ID #REQUIRED>
<!ELEMENT Title (#PCDATA)>
<!ELEMENT AName (#PCDATA)>
]>
<Library>
  <Book writer="a1"><Title>TAPL</Title></Book>
  <Book writer="a2"><Title>SICP</Title></Book>
  <Author key="a1"><AName>Pierce</AName></Author>
  <Author key="a2"><AName>Abelson</AName></Author>
</Library>`

func TestLoadIDRefForwardReferences(t *testing.T) {
	// Books precede their authors in the document: both IDREFs are
	// forward references that need the fixup pass.
	doc, sch, en, l := setup(t, idrefDoc, mapping.Options{}, ordb.ModeOracle9)
	if _, err := l.Load(doc, "lib.xml"); err != nil {
		t.Fatalf("Load: %v", err)
	}
	// Authors live in an object table.
	authors, err := en.DB().Table("TabAuthor")
	if err != nil {
		t.Fatal(err)
	}
	if authors.RowCount() != 2 {
		t.Errorf("author rows = %d", authors.RowCount())
	}
	// The Book IDREF columns now hold real REFs: navigate through one.
	rootTab, _ := en.DB().Table(sch.RootTable)
	var row *ordb.Row
	rootTab.Scan(func(r *ordb.Row) bool { row = r; return false })
	books := findColl(t, row.Vals, "Book")
	book0 := books.Elems[0].(*ordb.Object)
	attrList, ok := book0.Attrs[0].(*ordb.Object)
	if !ok {
		t.Fatalf("book attrList = %T", book0.Attrs[0])
	}
	ref, ok := attrList.Attrs[0].(ordb.Ref)
	if !ok {
		t.Fatalf("writer column = %T, want REF after fixup", attrList.Attrs[0])
	}
	target, err := en.DB().Deref(ref)
	if err != nil {
		t.Fatalf("deref: %v", err)
	}
	// The referenced author is Pierce (key a1).
	if !strings.Contains(target.SQL(), "Pierce") {
		t.Errorf("deref target = %s", target.SQL())
	}
}

func findColl(t *testing.T, vals []ordb.Value, want string) *ordb.Coll {
	t.Helper()
	for _, v := range vals {
		if c, ok := v.(*ordb.Coll); ok && strings.Contains(c.TypeName, want) {
			return c
		}
	}
	t.Fatalf("no collection containing %q in %v", want, vals)
	return nil
}

func TestLoadDanglingIDRefFails(t *testing.T) {
	src := strings.Replace(idrefDoc, `writer="a2"`, `writer="zz"`, 1)
	res, err := xmlparser.ParseWith(src, xmlparser.Options{Validate: false, KeepEntityRefs: true})
	if err != nil {
		t.Fatal(err)
	}
	tree, _ := dtd.BuildTree(res.DTD, "Library")
	sch, _ := mapping.Generate(tree, mapping.Options{})
	en := sql.NewEngine(ordb.New(ordb.ModeOracle9))
	if _, err := en.ExecScript(sch.Script()); err != nil {
		t.Fatal(err)
	}
	if _, err := New(sch, en).Load(res.Doc, "x"); err == nil {
		t.Error("dangling IDREF must fail the load")
	}
}

func TestLoadMultipleDocuments(t *testing.T) {
	doc, sch, en, l := setup(t, appendixA, mapping.Options{}, ordb.ModeOracle9)
	id1, err := l.Load(doc, "one")
	if err != nil {
		t.Fatal(err)
	}
	id2, err := l.Load(doc, "two")
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Errorf("DocIDs collide: %d", id1)
	}
	tab, _ := en.DB().Table(sch.RootTable)
	if tab.RowCount() != 2 {
		t.Errorf("rows = %d", tab.RowCount())
	}
}

func TestTextContentIncludesEntities(t *testing.T) {
	e := xmldom.NewElement("x")
	e.AppendChild(xmldom.NewText("at "))
	e.AppendChild(xmldom.NewEntityRef("cs", "Computer Science"))
	e.AppendChild(xmldom.NewCDATA(" [raw]"))
	if got := textContent(e); got != "at Computer Science [raw]" {
		t.Errorf("textContent = %q", got)
	}
}

// singleRefDoc exercises a single-valued REF child (an ID target that is
// not set-valued) and the inline-attribute variant.
const singleRefDoc = `<!DOCTYPE Paper [
<!ELEMENT Paper (Title,Venue)>
<!ELEMENT Venue (VName)>
<!ATTLIST Venue vid ID #REQUIRED>
<!ELEMENT Title (#PCDATA)>
<!ELEMENT VName (#PCDATA)>
]>
<Paper><Title>XML in ORDBs</Title><Venue vid="v1"><VName>EDBT</VName></Venue></Paper>`

func TestLoadSingleValuedRefChild(t *testing.T) {
	doc, sch, en, l := setup(t, singleRefDoc, mapping.Options{}, ordb.ModeOracle9)
	if _, err := l.Load(doc, "p"); err != nil {
		t.Fatalf("Load: %v", err)
	}
	venue, _ := sch.Mapping("Venue")
	if !venue.StoredByRef {
		t.Fatal("ID target must be REF-stored")
	}
	rows, err := en.Query(`SELECT p.attrVenue.attrVName FROM ` + sch.RootTable + ` p`)
	if err != nil {
		t.Fatalf("single REF navigation: %v", err)
	}
	if len(rows.Data) != 1 || rows.Data[0][0] != ordb.Str("EDBT") {
		t.Errorf("rows = %v", rows.Data)
	}
}

func TestLoadInlineAttributes(t *testing.T) {
	doc, sch, en, l := setup(t, appendixA, mapping.Options{InlineAttributes: true}, ordb.ModeOracle9)
	if _, err := l.Load(doc, "a"); err != nil {
		t.Fatalf("Load: %v", err)
	}
	rows, err := en.Query(`
		SELECT st.attrStudNr FROM ` + sch.RootTable + ` u, TABLE(u.attrStudent) st
		WHERE st.attrLName = 'Conrad'`)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(rows.Data) != 1 || rows.Data[0][0] != ordb.Str("23374") {
		t.Errorf("inline attr = %v", rows.Data)
	}
}

func TestLoadOptionalAbsentAndEmptyElements(t *testing.T) {
	src := `<!DOCTYPE r [
<!ELEMENT r (a?,flag?,items*)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT flag EMPTY>
<!ELEMENT items (#PCDATA)>
]>
<r/>`
	doc, sch, en, l := setup(t, src, mapping.Options{}, ordb.ModeOracle9)
	if _, err := l.Load(doc, "r"); err != nil {
		t.Fatalf("Load: %v", err)
	}
	rows, err := en.Query(`SELECT t.attra, t.attrflag FROM ` + sch.RootTable + ` t`)
	if err != nil {
		t.Fatal(err)
	}
	if !ordb.IsNull(rows.Data[0][0]) || !ordb.IsNull(rows.Data[0][1]) {
		t.Errorf("absent optionals = %v", rows.Data[0])
	}
}

func TestLoadMixedContentField(t *testing.T) {
	src := `<!DOCTYPE d [
<!ELEMENT d (p+)>
<!ELEMENT p (#PCDATA | b)*>
<!ELEMENT b (#PCDATA)>
]>
<d><p>x <b>y</b> z</p></d>`
	doc, sch, en, l := setup(t, src, mapping.Options{}, ordb.ModeOracle9)
	if _, err := l.Load(doc, "m"); err != nil {
		t.Fatalf("Load: %v", err)
	}
	rows, err := en.Query(`SELECT pv.COLUMN_VALUE FROM ` + sch.RootTable + ` d, TABLE(d.attrp) pv`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0] != ordb.Str("x y z") {
		t.Errorf("mixed text = %q", rows.Data[0][0])
	}
}

// Prepare decides where the shred runs: a pure nested schema is shredded
// off the engine (bulk ingest's parallelism depends on it), a schema that
// stores rows by REF is deferred into LoadPrepared's transaction.
func TestPrepareShredsOffEngineUnlessRefRows(t *testing.T) {
	cases := []struct {
		name     string
		src      string
		opts     mapping.Options
		mode     ordb.Mode
		deferred bool
	}{
		{"nested", appendixA, mapping.Options{}, ordb.ModeOracle9, false},
		{"strategy-ref", appendixA, mapping.Options{Strategy: mapping.StrategyRef}, ordb.ModeOracle8, true},
		{"recursive", recursiveDoc, mapping.Options{}, ordb.ModeOracle9, true},
		{"id-targets", idrefDoc, mapping.Options{}, ordb.ModeOracle9, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc, _, en, l := setup(t, tc.src, tc.opts, tc.mode)
			prep, err := l.Prepare(doc)
			if err != nil {
				t.Fatalf("Prepare: %v", err)
			}
			if prep.deferred != tc.deferred {
				t.Fatalf("deferred = %v, want %v", prep.deferred, tc.deferred)
			}
			if tc.deferred == (len(prep.fields) > 0) {
				t.Errorf("deferred = %v with %d shredded fields", tc.deferred, len(prep.fields))
			}
			if got := en.DB().Stats().Inserts; got != 0 {
				t.Errorf("Prepare touched the engine: %d inserts", got)
			}
			if id, err := l.LoadPrepared(doc, tc.name+".xml", prep); err != nil || id != 1 {
				t.Fatalf("LoadPrepared: id=%d err=%v", id, err)
			}
		})
	}
}

// TestGenIDCacheConcurrentAndBounded: the generated identifier values
// come from one cache that concurrent shredders may share, and the cache
// stops growing at its bound — values beyond it are still produced, just
// not kept.
func TestGenIDCacheConcurrentAndBounded(t *testing.T) {
	var c genIDCache
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 1; seq <= genIDCacheMax; seq++ {
				if v := c.value("Student", seq); v != ordb.Str("Student#"+strconv.Itoa(seq)) {
					t.Errorf("value(Student, %d) = %v", seq, v)
					return
				}
			}
		}()
	}
	wg.Wait()
	if v := c.value("Course", 1); v != ordb.Str("Course#1") {
		t.Errorf("value past the bound = %v", v)
	}
	if len(c.m) != genIDCacheMax {
		t.Errorf("cache holds %d values, bound %d", len(c.m), genIDCacheMax)
	}
}
