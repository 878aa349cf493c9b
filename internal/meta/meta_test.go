package meta

import (
	"errors"
	"testing"
	"time"

	"xmlordb/internal/dtd"
	"xmlordb/internal/mapping"
	"xmlordb/internal/ordb"
	"xmlordb/internal/sql"
	"xmlordb/internal/workload"
	"xmlordb/internal/xmlparser"
)

func testStore(t *testing.T) (*Store, *sql.Engine, *mapping.Schema) {
	t.Helper()
	en := sql.NewEngine(ordb.New(ordb.ModeOracle9))
	store, err := Install(en)
	if err != nil {
		t.Fatalf("Install: %v", err)
	}
	store.Now = func() time.Time { return time.Date(2002, 3, 25, 0, 0, 0, 0, time.UTC) }
	d := dtd.MustParse("University", workload.UniversityDTD)
	tree, err := dtd.BuildTree(d, "University")
	if err != nil {
		t.Fatal(err)
	}
	sch, err := mapping.Generate(tree, mapping.Options{SchemaID: ""})
	if err != nil {
		t.Fatal(err)
	}
	return store, en, sch
}

func TestInstallIdempotent(t *testing.T) {
	en := sql.NewEngine(ordb.New(ordb.ModeOracle9))
	if _, err := Install(en); err != nil {
		t.Fatal(err)
	}
	if _, err := Install(en); err != nil {
		t.Errorf("second install: %v", err)
	}
}

func TestRegisterAndLookup(t *testing.T) {
	store, en, sch := testStore(t)
	doc := workload.University(workload.DefaultUniversity())
	const id = 1
	if err := store.Register(id, doc, sch, "uni.xml", "file:///uni.xml"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	md, err := store.Document(id)
	if err != nil {
		t.Fatalf("Document: %v", err)
	}
	if md.DocName != "uni.xml" || md.URL != "file:///uni.xml" {
		t.Errorf("meta = %+v", md)
	}
	if md.XMLVersion != "1.0" || md.CharacterSet != "UTF-8" {
		t.Errorf("prolog = %q %q", md.XMLVersion, md.CharacterSet)
	}
	if md.Date.Year() != 2002 {
		t.Errorf("date = %v", md.Date)
	}
	// Entity definitions are captured.
	if len(md.Entities) != 1 || md.Entities[0].Name != "cs" {
		t.Errorf("entities = %+v", md.Entities)
	}
	// The meta-table itself is queryable through SQL, as in the paper.
	rows, err := en.Query(`SELECT m.DocName FROM TabMetadata m WHERE m.DocID = 1`)
	if err != nil {
		t.Fatalf("query meta: %v", err)
	}
	if rows.Data[0][0] != ordb.Str("uni.xml") {
		t.Errorf("SQL lookup = %v", rows.Data[0][0])
	}
}

func TestDocDataProvenance(t *testing.T) {
	store, _, sch := testStore(t)
	doc := workload.University(workload.DefaultUniversity())
	const id = 1
	if err := store.Register(id, doc, sch, "uni.xml", ""); err != nil {
		t.Fatal(err)
	}
	md, _ := store.Document(id)
	// Every element-derived and attribute-derived column appears.
	kinds := map[string]int{}
	for _, dd := range md.Data {
		kinds[dd.XMLType]++
	}
	if kinds["element"] == 0 || kinds["attribute"] == 0 {
		t.Errorf("DocData kinds = %v", kinds)
	}
	// Element/attribute distinction: StudNr is an attribute even though
	// it lands in a column named like element-derived ones.
	for _, dd := range md.Data {
		if dd.XMLName == "StudNr" && dd.XMLType != "attribute" {
			t.Errorf("StudNr misclassified: %+v", dd)
		}
		if dd.XMLName == "LName" && dd.XMLType != "element" {
			t.Errorf("LName misclassified: %+v", dd)
		}
	}
}

func TestDocumentsListingAndSequence(t *testing.T) {
	store, _, sch := testStore(t)
	doc := workload.University(workload.DefaultUniversity())
	for id := 1; id <= 3; id++ {
		if err := store.Register(id, doc, sch, "d", ""); err != nil {
			t.Fatal(err)
		}
	}
	// DocID is the primary key: a second registration under a live ID fails.
	if err := store.Register(2, doc, sch, "dup", ""); err == nil {
		t.Error("duplicate DocID registered")
	}
	docs, err := store.Documents()
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 3 {
		t.Fatalf("documents = %d", len(docs))
	}
	for i, d := range docs {
		if d.DocID != i+1 {
			t.Errorf("DocID[%d] = %d", i, d.DocID)
		}
	}
}

func TestUnknownDocument(t *testing.T) {
	store, _, _ := testStore(t)
	if _, err := store.Document(99); !errors.Is(err, ErrNoSuchDocument) {
		t.Errorf("unknown doc = %v", err)
	}
}

func TestStandaloneRoundTrip(t *testing.T) {
	store, _, sch := testStore(t)
	res, err := xmlparser.Parse(`<?xml version="1.0" standalone="yes"?><!DOCTYPE University [` +
		workload.UniversityDTD + `]><University><StudyCourse>CS</StudyCourse></University>`)
	if err != nil {
		t.Fatal(err)
	}
	const id = 1
	if err := store.Register(id, res.Doc, sch, "s", ""); err != nil {
		t.Fatal(err)
	}
	md, _ := store.Document(id)
	if md.Standalone != "yes" {
		t.Errorf("standalone = %q (CHAR padding not stripped?)", md.Standalone)
	}
}

// TestSchemaConstantsAreSharedAndImmutable: every document's row stores
// the schema's one DocData and Entities value (built once, not per
// document), the values equal a fresh per-document build, and rewriting
// one document's row through SQL leaves the other document's untouched.
func TestSchemaConstantsAreSharedAndImmutable(t *testing.T) {
	store, en, sch := testStore(t)
	doc := workload.University(workload.DefaultUniversity())
	for id := 1; id <= 2; id++ {
		if err := store.Register(id, doc, sch, "uni.xml", ""); err != nil {
			t.Fatalf("Register %d: %v", id, err)
		}
	}
	tab, err := en.DB().Table("TabMetadata")
	if err != nil {
		t.Fatal(err)
	}
	rowOf := func(id int) []ordb.Value {
		var vals []ordb.Value
		tab.Scan(func(r *ordb.Row) bool {
			if r.Vals[0] == ordb.Num(id) {
				vals = r.Vals
			}
			return true
		})
		if vals == nil {
			t.Fatalf("no TabMetadata row for document %d", id)
		}
		return vals
	}
	fresh := buildSchemaConsts(sch)
	one, two := rowOf(1), rowOf(2)
	for _, c := range []struct {
		col  int
		want ordb.Value
	}{{8, fresh.docData}, {9, fresh.entities}} {
		if one[c.col] != two[c.col] {
			t.Errorf("column %d: the two documents store distinct values, want one shared", c.col)
		}
		if !ordb.DeepEqual(one[c.col], c.want) || !ordb.DeepEqual(two[c.col], c.want) {
			t.Errorf("column %d differs from a per-document build:\n%s\nwant\n%s",
				c.col, ordb.FormatValue(one[c.col]), ordb.FormatValue(c.want))
		}
	}
	if _, err := en.Exec(`UPDATE TabMetadata SET DocData = TypeVA_DocData(` +
		`Type_DocData('element', 'Rewritten', 'attrRewritten', 'VARCHAR', NULL)) WHERE DocID = 1`); err != nil {
		t.Fatalf("UPDATE: %v", err)
	}
	md1, err := store.Document(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(md1.Data) != 1 || md1.Data[0].XMLName != "Rewritten" {
		t.Fatalf("document 1 after UPDATE: %+v", md1.Data)
	}
	if got := rowOf(2); !ordb.DeepEqual(got[8], fresh.docData) {
		t.Errorf("UPDATE of document 1 changed document 2's DocData:\n%s", ordb.FormatValue(got[8]))
	}
	// The next document still gets the schema's values, not the rewrite.
	if err := store.Register(3, doc, sch, "uni.xml", ""); err != nil {
		t.Fatal(err)
	}
	if got := rowOf(3); !ordb.DeepEqual(got[8], fresh.docData) {
		t.Errorf("document 3 registered after the UPDATE:\n%s", ordb.FormatValue(got[8]))
	}
}
