package ingest

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"xmlordb"
	"xmlordb/internal/wal"
	"xmlordb/internal/workload"
)

// sectionDTD is recursive (Section contains Section) and cross-linked:
// Section/see is an IDREF to another Section, and the corpus points it
// both backwards and forwards, so loading needs object-table rows, REF
// collections and post-insert IDREF fixups.
const sectionDTD = `<!ELEMENT Book (BTitle,Section*)>
<!ELEMENT Section (STitle,Para*,Section*)>
<!ATTLIST Section sid ID #REQUIRED see IDREF #IMPLIED>
<!ELEMENT BTitle (#PCDATA)>
<!ELEMENT STitle (#PCDATA)>
<!ELEMENT Para (#PCDATA)>`

func sectionDoc(i int, see string) string {
	return fmt.Sprintf(`<Book><BTitle>Book %d</BTitle>`+
		`<Section sid="s1" see=%q><STitle>One</STitle><Para>p%d</Para>`+
		`<Section sid="s2" see="s1"><STitle>Nested</STitle></Section></Section>`+
		`<Section sid="s3"><STitle>Target</STitle><Para>a</Para><Para>b</Para></Section></Book>`,
		i, see, i)
}

// outcome is what one document's load produced: a DocID or an error text.
type outcome struct {
	DocID int
	Err   string
}

// loadPath loads docs in order into st and reports each outcome; a bad
// document must not stop the ones after it.
type loadPath struct {
	name string
	load func(st *xmlordb.Store, docs []Doc) ([]outcome, error)
}

func sequential(one func(st *xmlordb.Store, d Doc) (int, error)) func(*xmlordb.Store, []Doc) ([]outcome, error) {
	return func(st *xmlordb.Store, docs []Doc) ([]outcome, error) {
		out := make([]outcome, len(docs))
		for i, d := range docs {
			id, err := one(st, d)
			if err != nil {
				out[i] = outcome{Err: err.Error()}
			} else {
				out[i] = outcome{DocID: id}
			}
		}
		return out, nil
	}
}

// pipelined runs the ingest pipeline with KeepGoing and checks the run's
// own accounting (batches, counters, store stats) along the way.
func pipelined(workers int) func(*xmlordb.Store, []Doc) ([]outcome, error) {
	const batchDocs = 3
	return func(st *xmlordb.Store, docs []Doc) ([]outcome, error) {
		res, err := Run(st, Docs(docs), Options{Workers: workers, BatchDocs: batchDocs, KeepGoing: true})
		if err != nil {
			return nil, err
		}
		out := make([]outcome, len(res.Docs))
		for i, dr := range res.Docs {
			out[i] = outcome{DocID: dr.DocID}
			if dr.Err != nil {
				var de *DocError
				if !errors.As(dr.Err, &de) {
					return nil, fmt.Errorf("doc %d: error %v is not a *DocError", i, dr.Err)
				}
				out[i] = outcome{Err: de.Err.Error()}
			}
		}
		wantBatches := (res.Loaded + batchDocs - 1) / batchDocs
		if res.Batches != wantBatches || res.Rows == 0 || res.Bytes == 0 {
			return nil, fmt.Errorf("run accounting: batches=%d (want %d) rows=%d bytes=%d",
				res.Batches, wantBatches, res.Rows, res.Bytes)
		}
		is := st.IngestStats()
		if is.Runs != 1 || is.Docs != int64(res.Loaded) || is.Failed != int64(res.Failed) || is.Batches != int64(res.Batches) {
			return nil, fmt.Errorf("store ingest stats = %+v, run = %d/%d in %d batches", is, res.Loaded, res.Failed, res.Batches)
		}
		return out, nil
	}
}

var loadPaths = []loadPath{
	{"Load(doc)", sequential(func(st *xmlordb.Store, d Doc) (int, error) {
		doc, _, err := xmlordb.ParseXML(d.XML)
		if err != nil {
			return 0, err
		}
		return st.Load(doc, d.Name)
	})},
	{"LoadXML", sequential(func(st *xmlordb.Store, d Doc) (int, error) {
		return st.LoadXML(d.XML, d.Name)
	})},
	{"PrepareXML+LoadPrepared", sequential(func(st *xmlordb.Store, d Doc) (int, error) {
		pd, err := st.PrepareXML(d.XML, d.Name)
		if err != nil {
			return 0, err
		}
		return st.LoadPrepared(pd)
	})},
	{"Run/1 worker", pipelined(1)},
	{"Run/4 workers", pipelined(4)},
}

// storeState is everything a load path leaves behind that another path
// could get differently.
type storeState struct {
	Outcomes  []outcome
	Retrieved []string       // RetrieveXML of every loaded document, in corpus order
	Rows      map[string]int // per-table row counts
	WAL       []string       // "lsn type summary" of every record, in log order
}

// TestLoadPathsAgree is the mechanical form of "one load path": every way
// of getting a corpus into a store — DOM, text, the two halves called by
// hand, the pipeline on one worker and on four — must leave the same
// DocIDs, retrievals, row counts and WAL records, and reject the same
// documents with the same words, for the pure nested mapping (shredded
// off the engine) and for the two kinds of schema whose shred is deferred
// into the transaction. Commit-unit boundaries are the one thing allowed
// to differ: the pipeline groups documents per batch.
func TestLoadPathsAgree(t *testing.T) {
	wrongRoot := Doc{Name: "wrong-root.xml", XML: `<Elsewhere><X>1</X></Elsewhere>`}
	uni := append(universityCorpus(t, 7), wrongRoot)
	uni[2], uni[7] = uni[7], uni[2]

	var sections []Doc
	for i := 0; i < 7; i++ {
		sections = append(sections, Doc{Name: fmt.Sprintf("book-%d.xml", i), XML: sectionDoc(i, "s3")})
	}
	sections[1] = wrongRoot
	sections[4] = Doc{Name: "dangling.xml", XML: sectionDoc(4, "nowhere")}

	cases := []struct {
		name, dtd, root string
		cfg             xmlordb.Config
		docs            []Doc
		bad             int
	}{
		{"AppendixA/nested", workload.UniversityDTD, "University", xmlordb.Config{}, uni, 1},
		{"AppendixA/StrategyRef", workload.UniversityDTD, "University", xmlordb.Config{Strategy: xmlordb.StrategyRef}, uni, 1},
		{"recursive+forward IDREFs", sectionDTD, "Book",
			xmlordb.Config{IDRefTargets: map[string]string{"Section/see": "Section"}}, sections, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var want storeState
			for i, p := range loadPaths {
				got := loadAndObserve(t, p, c.dtd, c.root, c.cfg, c.docs)
				if i == 0 {
					want = got
					bad := 0
					for _, o := range got.Outcomes {
						if o.Err != "" {
							bad++
						}
					}
					if bad != c.bad {
						t.Fatalf("%s rejected %d documents, want %d: %+v", p.name, bad, c.bad, got.Outcomes)
					}
					continue
				}
				if !reflect.DeepEqual(got.Outcomes, want.Outcomes) {
					t.Errorf("%s outcomes differ from %s:\n got %+v\nwant %+v", p.name, loadPaths[0].name, got.Outcomes, want.Outcomes)
				}
				if !reflect.DeepEqual(got.Retrieved, want.Retrieved) {
					t.Errorf("%s retrievals differ from %s", p.name, loadPaths[0].name)
				}
				if !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Errorf("%s row counts differ from %s:\n got %v\nwant %v", p.name, loadPaths[0].name, got.Rows, want.Rows)
				}
				if !reflect.DeepEqual(got.WAL, want.WAL) {
					t.Errorf("%s wal differs from %s:\n got %s\nwant %s", p.name, loadPaths[0].name,
						strings.Join(got.WAL, "\n     "), strings.Join(want.WAL, "\n     "))
				}
			}
		})
	}
}

func loadAndObserve(t *testing.T, p loadPath, dtdText, root string, cfg xmlordb.Config, docs []Doc) storeState {
	t.Helper()
	dir := t.TempDir()
	st, err := xmlordb.OpenDir(dir, dtdText, root, cfg, xmlordb.DurableOptions{Sync: wal.SyncNever})
	if err != nil {
		t.Fatalf("%s: OpenDir: %v", p.name, err)
	}
	defer st.Close()
	var state storeState
	if state.Outcomes, err = p.load(st, docs); err != nil {
		t.Fatalf("%s: %v", p.name, err)
	}
	if len(state.Outcomes) != len(docs) {
		t.Fatalf("%s: %d outcomes for %d documents", p.name, len(state.Outcomes), len(docs))
	}
	for _, o := range state.Outcomes {
		if o.Err != "" {
			continue
		}
		xml, err := st.RetrieveXML(o.DocID)
		if err != nil {
			t.Fatalf("%s: retrieve %d: %v", p.name, o.DocID, err)
		}
		state.Retrieved = append(state.Retrieved, xml)
	}
	state.Rows = tableRows(st)
	if err := st.Close(); err != nil {
		t.Fatalf("%s: Close: %v", p.name, err)
	}
	if _, err := xmlordb.ScanWAL(dir, func(lsn uint64, typ byte, _ bool, summary string) {
		state.WAL = append(state.WAL, fmt.Sprintf("%d %d %s", lsn, typ, summary))
	}); err != nil {
		t.Fatalf("%s: ScanWAL: %v", p.name, err)
	}
	// The log must rebuild what the path built (replay cross-checks every
	// recorded DocID against the one it re-derives).
	re, err := xmlordb.LoadStoreDir(dir, xmlordb.DurableOptions{Sync: wal.SyncNever})
	if err != nil {
		t.Fatalf("%s: recovery: %v", p.name, err)
	}
	defer re.Close()
	if got := tableRows(re); !reflect.DeepEqual(got, state.Rows) {
		t.Errorf("%s: recovered row counts %v, live %v", p.name, got, state.Rows)
	}
	return state
}

func tableRows(st *xmlordb.Store) map[string]int {
	out := map[string]int{}
	for _, name := range st.DB().TableNames() {
		if tab, err := st.DB().Table(name); err == nil {
			out[name] = tab.RowCount()
		}
	}
	return out
}
