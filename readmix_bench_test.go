package xmlordb_test

import (
	"fmt"
	"testing"

	"xmlordb"
	"xmlordb/internal/workload"
)

// scanPointSQL is the read_mix sql_point text: the students of one
// document, found through the DocID index.
const scanPointSQL = "SELECT st.attrLName FROM TabUniversity u, TABLE(u.attrStudent) st WHERE u.DocID = %d"

// readMixQueries opens a store over loadScanCorpus(…, 0, 1000) and
// returns the three read_mix query texts that run through the SQL
// executor: the Section 4.1 join, the XPath's translated SQL, and the
// point query on the document with the most students.
func readMixQueries(tb testing.TB) (*xmlordb.Store, []struct{ name, text string }) {
	tb.Helper()
	store, err := xmlordb.Open(workload.UniversityDTD, "University", xmlordb.Config{})
	if err != nil {
		tb.Fatalf("Open: %v", err)
	}
	loadScanCorpus(tb, store, 0, 1000)
	_, xpathSQL, err := store.XPath(scanXPath)
	if err != nil {
		tb.Fatalf("XPath: %v", err)
	}
	// Document i has 1+i%7 students and DocIDs count from 1, so DocID 7
	// holds seven.
	return store, []struct{ name, text string }{
		{"sql_join", scanJoinSQL},
		{"xpath", xpathSQL},
		{"sql_point", fmt.Sprintf(scanPointSQL, 5)},
	}
}

// BenchmarkReadMixQueries times the read_mix SQL texts in process at
// 1 000 Appendix A documents:
//
//	go test -run '^$' -bench ReadMixQueries -benchmem
func BenchmarkReadMixQueries(b *testing.B) {
	store, queries := readMixQueries(b)
	for _, q := range queries {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := store.Query(q.text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
