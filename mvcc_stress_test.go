package xmlordb

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"xmlordb/internal/ordb"
	"xmlordb/internal/workload"
	"xmlordb/internal/xmldom"
)

// TestMVCCReadersVsChurn is the MVCC isolation stress test: N reader
// goroutines run SQL, XPath and full-document retrieval against
// ReadView snapshots while one writer continuously loads and deletes
// documents. Every generated document carries exactly `students`
// Student rows, so any read that observes a student count that is not
// a multiple of that — a partially loaded or partially deleted
// document — is a visibility bug. Run with -race: the readers take no
// store or engine lock, so the detector also proves the lock-free read
// path is data-race free against the mutating writer.
func TestMVCCReadersVsChurn(t *testing.T) {
	store, err := Open(workload.UniversityDTD, "University", Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const students = 6
	p := workload.UniversityParams{Students: students, CoursesPerStudent: 2, ProfsPerCourse: 1, SubjectsPerProf: 1, Seed: 7}
	xmlText := xmldom.Serialize(workload.University(p))

	// One pinned document that is never deleted, so retrieval always has
	// a stable target even in views taken between a churn delete and the
	// next churn load.
	pinnedID, err := store.LoadXML(xmlText, "pinned.xml")
	if err != nil {
		t.Fatalf("LoadXML: %v", err)
	}

	writerIters := 60
	if testing.Short() {
		writerIters = 15
	}
	var stop atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < writerIters; i++ {
			id, err := store.LoadXML(xmlText, fmt.Sprintf("churn-%d.xml", i))
			if err != nil {
				t.Errorf("writer load %d: %v", i, err)
				return
			}
			if err := store.DeleteDocument(id); err != nil {
				t.Errorf("writer delete %d: %v", id, err)
				return
			}
		}
	}()

	const readers = 8
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				rv := store.ReadView()
				switch (g + i) % 3 {
				case 0:
					rows, err := rv.Query(`SELECT st.attrLName FROM TabUniversity u, TABLE(u.attrStudent) st`)
					if err != nil {
						t.Errorf("reader %d: query: %v", g, err)
						return
					}
					if len(rows.Data)%students != 0 {
						t.Errorf("reader %d: view shows %d students, not a multiple of %d: partial document visible",
							g, len(rows.Data), students)
						return
					}
				case 1:
					xml, err := rv.RetrieveXML(pinnedID)
					if err != nil {
						t.Errorf("reader %d: retrieve: %v", g, err)
						return
					}
					if n := strings.Count(xml, "<Student "); n != students {
						t.Errorf("reader %d: retrieved pinned doc with %d students, want %d", g, n, students)
						return
					}
				case 2:
					rows, _, err := rv.XPath(`/University/Student/LName`)
					if err != nil {
						t.Errorf("reader %d: xpath: %v", g, err)
						return
					}
					if len(rows.Data)%students != 0 {
						t.Errorf("reader %d: xpath shows %d LNames, not a multiple of %d: partial document visible",
							g, len(rows.Data), students)
						return
					}
				}
				reads.Add(1)
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	t.Logf("churn complete: %d reads against %d load/delete cycles", reads.Load(), writerIters)

	// A read view is frozen: mutations must be rejected, not applied.
	rv := store.ReadView()
	if _, err := rv.Exec(`DELETE FROM TabUniversity`); !errors.Is(err, ordb.ErrFrozen) {
		t.Errorf("Exec on a read view: err = %v, want ErrFrozen", err)
	}
	if _, err := rv.Engine.DB().Begin(); !errors.Is(err, ordb.ErrFrozen) {
		t.Errorf("Begin on a read view: err = %v, want ErrFrozen", err)
	}
}

// TestMVCCTransactionInvisibleUntilCommit pins the commit-publish
// boundary: a view taken while a transaction is open keeps showing the
// pre-transaction state, a view taken after Commit shows all of it at
// once, and a rolled-back transaction never surfaces in any view.
func TestMVCCTransactionInvisibleUntilCommit(t *testing.T) {
	store, docID, err := OpenDocument(paperDoc, "paper.xml", Config{})
	if err != nil {
		t.Fatalf("OpenDocument: %v", err)
	}
	before := store.ReadView()

	tx, err := store.Engine.DB().Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	doc2 := strings.Replace(paperDoc, `StudNr="23374"`, `StudNr="99001"`, 1)
	id2, err := store.LoadXML(doc2, "paper2.xml")
	if err != nil {
		t.Fatalf("LoadXML in tx: %v", err)
	}
	// Mid-transaction: new views still resolve to the pre-tx version.
	mid := store.ReadView()
	rows, err := mid.Query(`SELECT u.attrStudyCourse FROM TabUniversity u`)
	if err != nil {
		t.Fatalf("mid query: %v", err)
	}
	if len(rows.Data) != 1 {
		t.Errorf("mid-transaction view shows %d documents, want 1", len(rows.Data))
	}
	if _, err := mid.RetrieveXML(id2); err == nil {
		t.Errorf("mid-transaction view retrieved the uncommitted document")
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	after := store.ReadView()
	rows, err = after.Query(`SELECT u.attrStudyCourse FROM TabUniversity u`)
	if err != nil {
		t.Fatalf("after query: %v", err)
	}
	if len(rows.Data) != 2 {
		t.Errorf("post-commit view shows %d documents, want 2", len(rows.Data))
	}
	// The pre-transaction view is pinned: still one document.
	rows, err = before.Query(`SELECT u.attrStudyCourse FROM TabUniversity u`)
	if err != nil {
		t.Fatalf("before query: %v", err)
	}
	if len(rows.Data) != 1 {
		t.Errorf("pinned pre-tx view shows %d documents, want 1", len(rows.Data))
	}
	if _, err := before.RetrieveXML(docID); err != nil {
		t.Errorf("pinned view retrieve: %v", err)
	}

	// Rolled-back work never publishes.
	tx, err = store.Engine.DB().Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if _, err := store.LoadXML(strings.Replace(paperDoc, `StudNr="23374"`, `StudNr="77001"`, 1), "paper3.xml"); err != nil {
		t.Fatalf("LoadXML in tx: %v", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	rows, err = store.ReadView().Query(`SELECT u.attrStudyCourse FROM TabUniversity u`)
	if err != nil {
		t.Fatalf("post-rollback query: %v", err)
	}
	if len(rows.Data) != 2 {
		t.Errorf("post-rollback view shows %d documents, want 2", len(rows.Data))
	}
}

// TestCatalogReadersBesideDDL: readers on published versions list and
// look up types and tables and run SQL while one writer creates and drops
// types, tables and views and loads documents. Versions share the live
// catalog, which DDL must therefore copy instead of changing, so under
// -race this proves that no DDL writes what a version reads. Every
// version must also be self-consistent: each listed type and table
// resolves in the version that listed it.
func TestCatalogReadersBesideDDL(t *testing.T) {
	store, err := Open(workload.UniversityDTD, "University", Config{})
	if err != nil {
		t.Fatal(err)
	}
	iters := 40
	if testing.Short() {
		iters = 10
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < iters; i++ {
			for _, stmt := range []string{
				fmt.Sprintf("CREATE TYPE Type_Extra%d AS OBJECT (Code NUMBER, Label VARCHAR(20))", i),
				fmt.Sprintf("CREATE TABLE TabExtra%d OF Type_Extra%d", i, i),
				fmt.Sprintf("CREATE TABLE TabPlain%d (ID NUMBER, Label VARCHAR(20))", i),
				fmt.Sprintf("INSERT INTO TabPlain%d VALUES (%d, 'row')", i, i),
				fmt.Sprintf("CREATE VIEW ViewExtra%d AS SELECT p.ID FROM TabPlain%d p", i, i),
				fmt.Sprintf("DROP TABLE TabPlain%d", i),
				fmt.Sprintf("DROP TYPE Type_Extra%d FORCE", i),
			} {
				if _, err := store.Exec(stmt); err != nil {
					t.Errorf("%s: %v", stmt, err)
					return
				}
			}
			if _, err := store.LoadXML(uniDoc, fmt.Sprintf("u%d", i)); err != nil {
				t.Errorf("load %d: %v", i, err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for reads := 0; !stop.Load() || reads == 0; reads++ {
				rv := store.ReadView()
				db := rv.DB()
				for _, name := range db.TypeNames() {
					if _, err := db.Type(name); err != nil {
						t.Errorf("listed type %s: %v", name, err)
						return
					}
				}
				for _, name := range db.TableNames() {
					if _, err := db.Table(name); err != nil {
						t.Errorf("listed table %s: %v", name, err)
						return
					}
				}
				if _, err := db.Type("Type_University"); err != nil {
					t.Errorf("schema type: %v", err)
					return
				}
				if _, err := rv.Query("SELECT COUNT(*) FROM TabUniversity"); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
