package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"xmlordb"
	"xmlordb/internal/workload"
	"xmlordb/internal/xmldom"
)

func universityCorpus(t *testing.T, n int) []Doc {
	t.Helper()
	docs := make([]Doc, n)
	for i := 0; i < n; i++ {
		p := workload.UniversityParams{Students: 3, CoursesPerStudent: 2, ProfsPerCourse: 1, SubjectsPerProf: 2, Seed: int64(i + 1)}
		docs[i] = Doc{
			Name: fmt.Sprintf("doc-%03d.xml", i),
			XML:  xmldom.Serialize(workload.University(p)),
		}
	}
	return docs
}

func openUniversity(t *testing.T, cfg xmlordb.Config) *xmlordb.Store {
	t.Helper()
	st, err := xmlordb.Open(workload.UniversityDTD, "University", cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return st
}

// KeepGoing: bad documents report typed failures, good ones commit, and
// DocIDs stay gapless.
func TestKeepGoingIsolatesBadDocuments(t *testing.T) {
	docs := universityCorpus(t, 8)
	docs[2].XML = "<University><Broken"              // unparsable
	docs[5].XML = "<University><Nonsense/></University>" // invalid vs DTD

	st := openUniversity(t, xmlordb.Config{})
	res, err := Run(st, Docs(docs), Options{Workers: 3, BatchDocs: 3, KeepGoing: true})
	if err != nil {
		t.Fatalf("run with KeepGoing should not fail: %v", err)
	}
	if res.Loaded != 6 || res.Failed != 2 {
		t.Fatalf("loaded %d failed %d, want 6/2", res.Loaded, res.Failed)
	}
	nextID := 1
	for i, dr := range res.Docs {
		if i == 2 || i == 5 {
			var de *DocError
			if !errors.As(dr.Err, &de) {
				t.Fatalf("doc %d: error %v is not a *DocError", i, dr.Err)
			}
			if de.Name != docs[i].Name || de.Stage != StagePrepare {
				t.Errorf("doc %d: DocError = %+v", i, de)
			}
			continue
		}
		if dr.Err != nil {
			t.Fatalf("doc %d unexpectedly failed: %v", i, dr.Err)
		}
		if dr.DocID != nextID {
			t.Errorf("doc %d got DocID %d, want gapless %d", i, dr.DocID, nextID)
		}
		nextID++
	}
	for id := 1; id <= 6; id++ {
		if _, err := st.RetrieveXML(id); err != nil {
			t.Fatalf("retrieve %d: %v", id, err)
		}
	}
}

// A load-stage failure (duplicate document under the same schema is
// fine, so force it with an invalid-at-load doc): documents before the
// failure commit, the run returns the typed error.
func TestStopOnFirstErrorKeepsCommitted(t *testing.T) {
	docs := universityCorpus(t, 6)
	docs[3].XML = "<University><Broken"

	st := openUniversity(t, xmlordb.Config{})
	res, err := Run(st, Docs(docs), Options{Workers: 2, BatchDocs: 2})
	var de *DocError
	if !errors.As(err, &de) || de.Seq != 3 {
		t.Fatalf("run error = %v, want *DocError at seq 3", err)
	}
	if res.Loaded != 3 || res.Failed != 1 {
		t.Fatalf("loaded %d failed %d, want 3/1 (everything before the bad doc committed)", res.Loaded, res.Failed)
	}
	for id := 1; id <= 3; id++ {
		if _, err := st.RetrieveXML(id); err != nil {
			t.Fatalf("retrieve %d: %v", id, err)
		}
	}
}

func TestOptionsNormalize(t *testing.T) {
	cases := []struct {
		in      Options
		wantErr bool
	}{
		{Options{Workers: -1}, true},
		{Options{BatchDocs: -2}, true},
		{Options{BatchBytes: -1}, true},
		{Options{}, false},
	}
	for i, c := range cases {
		err := c.in.Normalize()
		if (err != nil) != c.wantErr {
			t.Errorf("case %d: err = %v, wantErr=%v", i, err, c.wantErr)
		}
	}
	o := Options{}
	if err := o.Normalize(); err != nil {
		t.Fatal(err)
	}
	if o.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers 0 -> %d, want GOMAXPROCS %d", o.Workers, runtime.GOMAXPROCS(0))
	}
	if o.BatchDocs != DefaultBatchDocs || o.BatchBytes != DefaultBatchBytes {
		t.Errorf("defaults not applied: %+v", o)
	}
}

// Byte budget: tiny budget forces one doc per batch.
func TestBatchBytesBudget(t *testing.T) {
	docs := universityCorpus(t, 4)
	st := openUniversity(t, xmlordb.Config{})
	res, err := Run(st, Docs(docs), Options{Workers: 2, BatchDocs: 100, BatchBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 4 || res.MaxBatchDocs != 1 {
		t.Errorf("batches=%d max=%d, want 4/1 under a 1-byte budget", res.Batches, res.MaxBatchDocs)
	}
}

// cancelSource cancels the context after yielding k documents, then
// keeps yielding; the pipeline must drain cleanly and return ctx.Err().
type cancelSource struct {
	docs   []Doc
	after  int
	i      int
	cancel context.CancelFunc
}

func (s *cancelSource) Next() (Doc, error) {
	if s.i == s.after {
		s.cancel()
	}
	if s.i >= len(s.docs) {
		return Doc{}, io.EOF
	}
	d := s.docs[s.i]
	s.i++
	return d, nil
}

func TestContextCancellationDrains(t *testing.T) {
	docs := universityCorpus(t, 50)
	ctx, cancel := context.WithCancel(context.Background())
	st := openUniversity(t, xmlordb.Config{})
	res, err := Run(st, &cancelSource{docs: docs, after: 10, cancel: cancel},
		Options{Workers: 4, BatchDocs: 4, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run error = %v, want context.Canceled", err)
	}
	if res.Loaded >= len(docs) {
		t.Fatalf("cancellation loaded the whole corpus (%d docs)", res.Loaded)
	}
	// Whatever committed must be whole and contiguous.
	for id := 1; id <= res.Loaded; id++ {
		if _, err := st.RetrieveXML(id); err != nil {
			t.Fatalf("retrieve %d after cancel: %v", id, err)
		}
	}
}

func TestFileAndDirSources(t *testing.T) {
	dir := t.TempDir()
	docs := universityCorpus(t, 5)
	for i, d := range docs {
		path := filepath.Join(dir, fmt.Sprintf("d%02d.xml", i))
		if err := os.WriteFile(path, []byte(d.XML), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("not xml"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := Dir(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := openUniversity(t, xmlordb.Config{})
	res, err := Run(st, src, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Loaded != 5 {
		t.Fatalf("dir source loaded %d, want 5 (txt file must be skipped)", res.Loaded)
	}

	// A missing file is a per-document read failure under KeepGoing.
	paths := []string{filepath.Join(dir, "d00.xml"), filepath.Join(dir, "missing.xml")}
	st2 := openUniversity(t, xmlordb.Config{})
	res2, err := Run(st2, Files(paths), Options{Workers: 1, KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Loaded != 1 || res2.Failed != 1 {
		t.Fatalf("loaded %d failed %d, want 1/1", res2.Loaded, res2.Failed)
	}
	var de *DocError
	if !errors.As(res2.Docs[1].Err, &de) || de.Stage != StageRead {
		t.Fatalf("missing file error = %v, want read-stage DocError", res2.Docs[1].Err)
	}
	if !strings.Contains(de.Error(), "missing.xml") {
		t.Errorf("DocError does not name the file: %v", de)
	}
}

// Durable store: a batch is one WAL commit unit, and recovery replays
// the pipeline's loads to the identical state (DocID cross-checks in
// applyWALRecord fail loudly if commit order ever diverged).
func TestDurableIngestGroupCommitAndReplay(t *testing.T) {
	dir := t.TempDir()
	st, err := xmlordb.OpenDir(dir, workload.UniversityDTD, "University", xmlordb.Config{}, xmlordb.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	docs := universityCorpus(t, 10)
	res, err := Run(st, Docs(docs), Options{Workers: 4, BatchDocs: 5})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	ws, ok := st.WALStats()
	if !ok {
		t.Fatal("no wal stats on a durable store")
	}
	// 10 load records in 2 commit units: group commit must not fsync per
	// document. Allow slack for the initial checkpoint bookkeeping.
	if ws.Appends != 10 {
		t.Errorf("wal appends = %d, want 10", ws.Appends)
	}
	if res.Batches != 2 {
		t.Fatalf("batches = %d, want 2", res.Batches)
	}
	want := make([]string, 11)
	for id := 1; id <= 10; id++ {
		want[id], err = st.RetrieveXML(id)
		if err != nil {
			t.Fatalf("retrieve %d: %v", id, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := xmlordb.LoadStoreDir(dir, xmlordb.DurableOptions{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer re.Close()
	for id := 1; id <= 10; id++ {
		got, err := re.RetrieveXML(id)
		if err != nil {
			t.Fatalf("retrieve %d after recovery: %v", id, err)
		}
		if got != want[id] {
			t.Errorf("doc %d differs after recovery", id)
		}
	}
}
