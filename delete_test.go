package xmlordb

import (
	"fmt"
	"maps"
	"runtime"
	"testing"

	"xmlordb/internal/ordb"
	"xmlordb/internal/workload"
)

func TestDeleteDocumentNested(t *testing.T) {
	store, docID, err := OpenDocument(paperDoc, "p", Config{})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := store.LoadXML(
		`<University><StudyCourse>Math</StudyCourse></University>`, "second")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.DeleteDocument(docID); err != nil {
		t.Fatalf("DeleteDocument: %v", err)
	}
	if _, err := store.Retrieve(docID); err == nil {
		t.Error("deleted document still retrievable")
	}
	// The other document must survive.
	if _, err := store.Retrieve(id2); err != nil {
		t.Errorf("unrelated document lost: %v", err)
	}
	// The meta row is gone too.
	if _, err := store.Meta.Document(docID); err == nil {
		t.Error("meta registration survived")
	}
	if _, err := store.Meta.Document(id2); err != nil {
		t.Errorf("unrelated meta lost: %v", err)
	}
	if err := store.DeleteDocument(docID); err == nil {
		t.Error("double delete must fail")
	}
}

func TestDeleteDocumentRefStrategy(t *testing.T) {
	store, err := Open(workload.UniversityDTD, "University",
		Config{Strategy: StrategyRef})
	if err != nil {
		t.Fatal(err)
	}
	doc := workload.University(workload.UniversityParams{
		Students: 3, CoursesPerStudent: 2, ProfsPerCourse: 1, SubjectsPerProf: 1, Seed: 1,
	})
	id1, err := store.Load(doc, "one")
	if err != nil {
		t.Fatal(err)
	}
	id2, err := store.Load(doc, "two")
	if err != nil {
		t.Fatal(err)
	}
	students, _ := store.DB().Table("TabStudent")
	profs, _ := store.DB().Table("TabProfessor")
	if students.RowCount() != 6 || profs.RowCount() != 12 {
		t.Fatalf("pre-delete rows: students=%d profs=%d", students.RowCount(), profs.RowCount())
	}
	if err := store.DeleteDocument(id1); err != nil {
		t.Fatalf("DeleteDocument: %v", err)
	}
	// Exactly one document's rows are gone from every object table.
	if students.RowCount() != 3 {
		t.Errorf("students after delete = %d, want 3", students.RowCount())
	}
	if profs.RowCount() != 6 {
		t.Errorf("professors after delete = %d, want 6", profs.RowCount())
	}
	// The surviving document still round-trips completely.
	rep, err := store.Fidelity(doc, id2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ElementsMatched != rep.ElementsTotal {
		t.Errorf("survivor damaged: %s", rep)
	}
}

func TestDeleteDocumentRecursive(t *testing.T) {
	src := `<!DOCTYPE part [
<!ELEMENT part (name,part*)>
<!ELEMENT name (#PCDATA)>
]>
<part><name>root</name><part><name>child</name><part><name>leaf</name></part></part></part>`
	store, docID, err := OpenDocument(src, "parts", Config{DisableMetadata: true})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := store.DB().Table("Tabpart")
	if err != nil {
		t.Fatal(err)
	}
	if parts.RowCount() != 3 {
		t.Fatalf("pre-delete parts = %d", parts.RowCount())
	}
	if err := store.DeleteDocument(docID); err != nil {
		t.Fatalf("DeleteDocument: %v", err)
	}
	if parts.RowCount() != 0 {
		t.Errorf("parts after delete = %d, want 0", parts.RowCount())
	}
}

// TestRefRetrieveAndDeleteScanIndependentOfStoreSize: the engine rows
// one Retrieve and one DeleteDocument read do not depend on how many
// documents the store holds — the same count with 50 and with 2 000
// stored. Under the Oracle 8 REF mapping children are found by probing the
// index on their parent REF, not by scanning the child tables; with the
// meta-database on, under either strategy, the TabMetadata row is found by
// probing its DocID key. A retrieve on a published version (ReadView)
// probes the same indexes and reads exactly as many rows.
func TestRefRetrieveAndDeleteScanIndependentOfStoreSize(t *testing.T) {
	for _, arm := range []struct {
		name string
		cfg  Config
	}{
		{"ref", Config{Strategy: StrategyRef, DisableMetadata: true}},
		{"ref+meta", Config{Strategy: StrategyRef}},
		{"nested+meta", Config{}},
	} {
		t.Run(arm.name, func(t *testing.T) { checkScanIndependentOfStoreSize(t, arm.cfg) })
	}
}

func checkScanIndependentOfStoreSize(t *testing.T, cfg Config) {
	s, err := Open(workload.UniversityDTD, "University", cfg)
	if err != nil {
		t.Fatal(err)
	}
	filler := workload.University(workload.UniversityParams{
		Students: 2, CoursesPerStudent: 1, ProfsPerCourse: 1, SubjectsPerProf: 1, Seed: 2,
	})
	probe := workload.University(workload.UniversityParams{
		Students: 3, CoursesPerStudent: 2, ProfsPerCourse: 2, SubjectsPerProf: 1, Seed: 1,
	})
	scanned := func(op func() error) (rows, probes int64) {
		t.Helper()
		before := s.DB().Stats()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		after := s.DB().Stats()
		return after.RowsScanned - before.RowsScanned, after.IndexProbes - before.IndexProbes
	}
	var counts []string
	stored := 0
	for _, size := range []int{50, 2000} {
		for ; stored < size; stored++ {
			if _, err := s.Load(filler, "fill"); err != nil {
				t.Fatal(err)
			}
		}
		id, err := s.Load(probe, "probe")
		if err != nil {
			t.Fatal(err)
		}
		retrieve, _ := scanned(func() error { _, err := s.RetrieveXML(id); return err })
		view, viewProbes := scanned(func() error { _, err := s.ReadView().RetrieveXML(id); return err })
		del, _ := scanned(func() error { return s.DeleteDocument(id) })
		if view != retrieve || viewProbes == 0 {
			t.Errorf("%d stored: ReadView retrieve read %d rows with %d probes, live retrieve %d rows", size, view, viewProbes, retrieve)
		}
		counts = append(counts, fmt.Sprintf("retrieve %d rows, delete %d rows", retrieve, del))
	}
	t.Logf("%v", counts)
	if counts[0] != counts[1] || counts[0] == "retrieve 0 rows, delete 0 rows" {
		t.Errorf("with 50 documents stored: %s; with 2000: %s", counts[0], counts[1])
	}
}

// TestDeleteFaultPoints pins how many fault points one DeleteDocument
// passes, per operation: a deref per REF it expands and one delete per
// table it removes rows from (the object tables in name order, then the
// root table and TabMetadata). The chaos sweep fails each of them in turn,
// so changing these numbers changes what the sweep covers.
func TestDeleteFaultPoints(t *testing.T) {
	for _, arm := range []struct {
		name  string
		strat int
		want  map[string]int64
	}{
		{"nested", 0, map[string]int64{ordb.FaultDelete: 4, ordb.FaultDeref: 3}},
		{"ref", 1, map[string]int64{ordb.FaultDelete: 6, ordb.FaultDeref: 6}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			store := progStore(t, arm.strat)
			id, err := store.LoadXML(progXML, "prog.xml")
			if err != nil {
				t.Fatal(err)
			}
			got := opTotals(t, store.DB(), func() error { return store.DeleteDocument(id) })
			if !maps.Equal(got, arm.want) {
				t.Errorf("fault points of one DeleteDocument = %v, want %v", got, arm.want)
			}
		})
	}
}

// TestDeleteIndependentOfStoreSize: one DeleteDocument costs the same with
// 50 and with 2 000 documents stored — the same rows read, and bytes
// allocated within 1.5× — under both mappings, with the meta-database on
// and off. The delete hands the engine the rows it found by probe and
// deref; no table is scanned or rebuilt.
func TestDeleteIndependentOfStoreSize(t *testing.T) {
	for _, arm := range []struct {
		name string
		cfg  Config
	}{
		{"ref", Config{Strategy: StrategyRef, DisableMetadata: true}},
		{"ref+meta", Config{Strategy: StrategyRef}},
		{"nested", Config{DisableMetadata: true}},
		{"nested+meta", Config{}},
	} {
		t.Run(arm.name, func(t *testing.T) { checkDeleteIndependentOfStoreSize(t, arm.cfg) })
	}
}

func checkDeleteIndependentOfStoreSize(t *testing.T, cfg Config) {
	s, err := Open(workload.UniversityDTD, "University", cfg)
	if err != nil {
		t.Fatal(err)
	}
	doc := workload.University(workload.UniversityParams{
		Students: 3, CoursesPerStudent: 2, ProfsPerCourse: 2, SubjectsPerProf: 1, Seed: 1,
	})
	const deletes = 20
	var ids []int
	load := func(n int) {
		for ; n > 0; n-- {
			id, err := s.Load(doc, "doc")
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	// measure deletes the oldest documents one by one, as a sliding window
	// does, and reports rows scanned per delete (equal for every delete)
	// and bytes allocated per delete. An unmeasured first delete builds
	// the lazily materialized DocID indexes it probes.
	measure := func() (scanned int64, bytes float64) {
		if err := s.DeleteDocument(ids[0]); err != nil {
			t.Fatal(err)
		}
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		for i := 1; i <= deletes; i++ {
			before := s.DB().Stats().RowsScanned
			if err := s.DeleteDocument(ids[i]); err != nil {
				t.Fatal(err)
			}
			n := s.DB().Stats().RowsScanned - before
			if i > 1 && n != scanned {
				t.Fatalf("delete %d read %d rows, the first %d", i, n, scanned)
			}
			scanned = n
		}
		runtime.ReadMemStats(&ms1)
		ids = ids[deletes+1:]
		return scanned, float64(ms1.TotalAlloc-ms0.TotalAlloc) / deletes
	}
	load(50 + deletes + 1)
	smallRows, smallBytes := measure()
	load(2000 - len(ids) + deletes + 1)
	largeRows, largeBytes := measure()
	t.Logf("per delete: %d rows and %.0f B allocated at 50 stored, %d rows and %.0f B at 2000",
		smallRows, smallBytes, largeRows, largeBytes)
	if smallRows != largeRows {
		t.Errorf("a delete read %d rows with 50 documents stored and %d with 2000", smallRows, largeRows)
	}
	if largeBytes > 1.5*smallBytes {
		t.Errorf("a delete allocated %.0f B with 50 documents stored and %.0f B with 2000 (> 1.5×)", smallBytes, largeBytes)
	}
}
