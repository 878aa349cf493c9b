package xmlordb_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"xmlordb"
	"xmlordb/internal/workload"
)

// The read queries of the wire benchmark's read_mix workload: the
// paper's Section 4.1 query over four levels of nested collections, and
// the XPath that translates to a lateral scan of the same shape.
const (
	scanJoinSQL   = "SELECT st.attrLName FROM TabUniversity u, TABLE(u.attrStudent) st, TABLE(st.attrCourse) c, TABLE(c.attrProfessor) p WHERE p.attrPName = 'Jaeger'"
	scanXPath     = "/University/Student[@StudNr='29999']/LName"
	scanMatchDocs = 4 // documents with one Jaeger professor each
)

// loadScanCorpus appends Appendix A documents numbered from..to-1 to
// store. Each has 1-7 students with 3 courses of 2 professors; only the
// first scanMatchDocs documents hold a "Jaeger" professor, and only
// document 0 holds student 29999, so adding documents adds scanned rows
// but no result rows.
func loadScanCorpus(t testing.TB, store *xmlordb.Store, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		want := 0
		if i < scanMatchDocs {
			want = 1
		}
		doc := workload.UniversityWithJaeger(workload.UniversityParams{
			Students: 1 + i%7, CoursesPerStudent: 3, ProfsPerCourse: 2, SubjectsPerProf: 2, Seed: int64(i + 1),
		}, want)
		for j, st := range doc.Root().ChildElementsNamed("Student") {
			st.SetAttr("StudNr", fmt.Sprintf("%05d", 30000+8*i+j))
		}
		if i == 0 {
			doc.Root().ChildElementsNamed("Student")[0].SetAttr("StudNr", "29999")
		}
		if _, err := store.Load(doc, fmt.Sprintf("doc%04d.xml", i)); err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
	}
}

// TestScanAllocations pins that the nested-collection scan allocates
// nothing per scanned row: at 1 000 documents the read_mix join, XPath
// and point queries stay under a fixed allocation ceiling, and
// quadrupling the store adds no more allocations than it adds result
// rows. Each text is bound once: repeated executions all hit its cached
// plan.
func TestScanAllocations(t *testing.T) {
	store, err := xmlordb.Open(workload.UniversityDTD, "University", xmlordb.Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	missesBefore := store.CacheStats().PlanMisses
	_, xpathSQL, err := store.XPath(scanXPath)
	if err != nil {
		t.Fatalf("XPath: %v", err)
	}
	queries := []struct {
		name    string
		text    string
		ceiling float64 // allocations per query at 1 000 documents
	}{
		{"sql_join", scanJoinSQL, 200},
		{"xpath", xpathSQL, 100},
		// DocID 5 holds five students. Before plans were bound once and
		// EXPLAIN texts rendered lazily, this query allocated 45 times.
		{"sql_point", fmt.Sprintf(scanPointSQL, 5), 32},
	}
	measure := func(text string) (allocs float64, rows int) {
		t.Helper()
		res, err := store.Query(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		allocs = testing.AllocsPerRun(20, func() {
			if _, err := store.Query(text); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, len(res.Data)
	}

	loadScanCorpus(t, store, 0, 250)
	small := make([][2]float64, len(queries))
	for i, q := range queries {
		a, n := measure(q.text)
		small[i] = [2]float64{a, float64(n)}
	}
	loadScanCorpus(t, store, 250, 1000)
	for i, q := range queries {
		a, n := measure(q.text)
		t.Logf("%s: %.0f allocs, %d rows at 250 docs; %.0f allocs, %d rows at 1000 docs",
			q.name, small[i][0], int(small[i][1]), a, n)
		if n == 0 {
			t.Errorf("%s: no result rows; the corpus does not exercise the query", q.name)
		}
		if a >= q.ceiling {
			t.Errorf("%s: %.0f allocations per query at 1000 documents, want < %.0f", q.name, a, q.ceiling)
		}
		if growth, rowGrowth := a-small[i][0], float64(n)-small[i][1]; growth > rowGrowth {
			t.Errorf("%s: allocations grew by %.0f from 250 to 1000 documents, result rows by %.0f",
				q.name, growth, rowGrowth)
		}
	}
	if misses := store.CacheStats().PlanMisses - missesBefore; misses != int64(len(queries)) {
		t.Errorf("%d plan misses over %d repeatedly executed texts, want one per text", misses, len(queries))
	}
}

// TestSharedPlanConcurrentJoin runs one cached statement text from
// several goroutines at once: the parsed AST (literal values included)
// is shared through the statement cache and every execution keeps its
// own unnest iterators, so each result must equal the serial one.
func TestSharedPlanConcurrentJoin(t *testing.T) {
	store, err := xmlordb.Open(workload.UniversityDTD, "University", xmlordb.Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	loadScanCorpus(t, store, 0, 40)
	want, err := store.Query(scanJoinSQL)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	if len(want.Data) != scanMatchDocs {
		t.Fatalf("serial: %d rows, want %d", len(want.Data), scanMatchDocs)
	}
	const goroutines, iters = 4, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				got, err := store.Query(scanJoinSQL)
				if err != nil {
					t.Errorf("concurrent: %v", err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent result %v differs from serial %v", got.Data, want.Data)
					return
				}
			}
		}()
	}
	wg.Wait()
}
