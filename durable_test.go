package xmlordb

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmlordb/internal/wal"
	"xmlordb/internal/workload"
)

const uniDoc = `<University><StudyCourse>Math</StudyCourse>
<Student StudNr="1"><LName>Kudrass</LName><FName>Thomas</FName></Student></University>`

func openDurT(t *testing.T, dir string, opts DurableOptions) *Store {
	t.Helper()
	s, err := OpenDir(dir, workload.UniversityDTD, "University", Config{}, opts)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func countDocs(t *testing.T, s *Store, table string) int {
	t.Helper()
	rows, err := s.Query("SELECT DocID FROM " + table)
	if err != nil {
		t.Fatalf("count query: %v", err)
	}
	return len(rows.Data)
}

func TestDurableLoadSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := openDurT(t, dir, DurableOptions{})
	id, err := s.LoadXML(uniDoc, "u1")
	if err != nil {
		t.Fatalf("LoadXML: %v", err)
	}
	if _, err := s.LoadXML(uniDoc, "u2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Reopen WITHOUT a fresh checkpoint: recovery must replay the tail.
	s2 := openDurT(t, dir, DurableOptions{})
	st, ok := s2.WALStats()
	if !ok || st.Replayed != 2 {
		t.Fatalf("replayed = %d (ok=%v), want 2", st.Replayed, ok)
	}
	if n := countDocs(t, s2, "TabUniversity"); n != 2 {
		t.Fatalf("recovered %d documents, want 2", n)
	}
	xml, err := s2.RetrieveXML(id)
	if err != nil || !strings.Contains(xml, "Kudrass") {
		t.Fatalf("retrieve after recovery: %v\n%s", err, xml)
	}
	// And the recovered store keeps logging: a third doc survives too.
	if _, err := s2.LoadXML(uniDoc, "u3"); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := openDurT(t, dir, DurableOptions{})
	if n := countDocs(t, s3, "TabUniversity"); n != 3 {
		t.Fatalf("after second recovery: %d documents, want 3", n)
	}
}

func TestCheckpointMakesReopenReplayFree(t *testing.T) {
	dir := t.TempDir()
	s := openDurT(t, dir, DurableOptions{})
	if _, err := s.LoadXML(uniDoc, "u1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	s.Close()
	s2 := openDurT(t, dir, DurableOptions{})
	st, _ := s2.WALStats()
	if st.Replayed != 0 {
		t.Fatalf("replayed %d records after checkpoint, want 0", st.Replayed)
	}
	if n := countDocs(t, s2, "TabUniversity"); n != 1 {
		t.Fatalf("recovered %d documents, want 1", n)
	}
	// Exactly one snapshot file remains.
	matches, _ := filepath.Glob(filepath.Join(dir, "snapshot-*.xos"))
	if len(matches) != 1 {
		t.Fatalf("snapshot files after checkpoint: %v", matches)
	}
}

func TestDurableDeleteReplay(t *testing.T) {
	dir := t.TempDir()
	s := openDurT(t, dir, DurableOptions{})
	id1, _ := s.LoadXML(uniDoc, "u1")
	if _, err := s.LoadXML(uniDoc, "u2"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteDocument(id1); err != nil {
		t.Fatalf("DeleteDocument: %v", err)
	}
	s.Close()
	s2 := openDurT(t, dir, DurableOptions{})
	if n := countDocs(t, s2, "TabUniversity"); n != 1 {
		t.Fatalf("after delete replay: %d documents, want 1", n)
	}
	if _, err := s2.RetrieveXML(id1); err == nil {
		t.Fatal("deleted document still retrievable after recovery")
	}
}

func TestDurableSQLReplay(t *testing.T) {
	dir := t.TempDir()
	s := openDurT(t, dir, DurableOptions{})
	if _, err := s.Exec(`CREATE TABLE TabNotes (Note VARCHAR2(100))`); err != nil {
		t.Fatalf("DDL: %v", err)
	}
	if _, err := s.Exec(`INSERT INTO TabNotes VALUES ('remember')`); err != nil {
		t.Fatalf("DML: %v", err)
	}
	s.Close()
	s2 := openDurT(t, dir, DurableOptions{})
	rows, err := s2.Query(`SELECT Note FROM TabNotes`)
	if err != nil || len(rows.Data) != 1 {
		t.Fatalf("DDL+DML not replayed: %v %v", err, rows)
	}
}

func TestRolledBackTxNeverReachesLog(t *testing.T) {
	dir := t.TempDir()
	s := openDurT(t, dir, DurableOptions{})
	if _, err := s.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadXML(uniDoc, "doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadXML(uniDoc, "kept"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openDurT(t, dir, DurableOptions{})
	rows, err := s2.Query(`SELECT DocName FROM TabMetadata`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 || fmt.Sprint(rows.Data[0][0]) != "kept" {
		t.Fatalf("recovered metadata = %v, want only 'kept'", rows.Data)
	}
}

func TestSavepointRollbackTrimsBufferedRecords(t *testing.T) {
	dir := t.TempDir()
	s := openDurT(t, dir, DurableOptions{})
	mustExec := func(q string) {
		t.Helper()
		if _, err := s.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	mustExec("BEGIN")
	if _, err := s.LoadXML(uniDoc, "before-sp"); err != nil {
		t.Fatal(err)
	}
	mustExec("SAVEPOINT sp1")
	if _, err := s.LoadXML(uniDoc, "after-sp"); err != nil {
		t.Fatal(err)
	}
	mustExec("ROLLBACK TO SAVEPOINT sp1")
	mustExec("COMMIT")
	s.Close()
	s2 := openDurT(t, dir, DurableOptions{})
	rows, err := s2.Query(`SELECT DocName FROM TabMetadata`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 || fmt.Sprint(rows.Data[0][0]) != "before-sp" {
		t.Fatalf("recovered metadata = %v, want only 'before-sp'", rows.Data)
	}
}

func TestFailedLoadLeavesNoRecordAndNoRows(t *testing.T) {
	// An injected fault mid-load rolls the engine back; the WAL must not
	// have logged anything, so recovery shows no trace of the half-load.
	dir := t.TempDir()
	s := openDurT(t, dir, DurableOptions{})
	if _, err := s.LoadXML(uniDoc, "ok"); err != nil {
		t.Fatal(err)
	}
	before, _ := s.WALStats()
	s.DB().SetFaultHook(func(op string, n int64) error {
		if op == "insert" && n == 2 {
			return errors.New("injected")
		}
		return nil
	})
	_, err := s.LoadXML(uniDoc, "doomed")
	s.DB().SetFaultHook(nil)
	if err == nil {
		t.Fatal("injected fault did not fail the load")
	}
	after, _ := s.WALStats()
	if after.Appends != before.Appends {
		t.Fatalf("failed load appended to the WAL (%d -> %d)", before.Appends, after.Appends)
	}
	s.Close()
	s2 := openDurT(t, dir, DurableOptions{})
	if n := countDocs(t, s2, "TabUniversity"); n != 1 {
		t.Fatalf("recovered %d documents, want 1 (no half-applied load)", n)
	}
}

func TestTornTailTruncatedAtStoreLevel(t *testing.T) {
	dir := t.TempDir()
	s := openDurT(t, dir, DurableOptions{})
	if _, err := s.LoadXML(uniDoc, "u1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadXML(uniDoc, "u2"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Simulate a crash mid-append: chop bytes off the last segment.
	segs, _ := filepath.Glob(filepath.Join(dir, walDirName, "*.wal"))
	if len(segs) == 0 {
		t.Fatal("no wal segments")
	}
	last := segs[len(segs)-1]
	data, _ := os.ReadFile(last)
	if err := os.WriteFile(last, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openDurT(t, dir, DurableOptions{})
	st, _ := s2.WALStats()
	if !st.TruncatedTail {
		t.Fatal("torn tail not reported")
	}
	// The torn record (u2) is gone, the intact prefix (u1) recovered.
	if n := countDocs(t, s2, "TabUniversity"); n != 1 {
		t.Fatalf("recovered %d documents after torn tail, want 1", n)
	}
}

func TestMidLogCorruptionRefusesRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openDurT(t, dir, DurableOptions{})
	for i := 0; i < 3; i++ {
		if _, err := s.LoadXML(uniDoc, fmt.Sprintf("u%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, walDirName, "*.wal"))
	data, _ := os.ReadFile(segs[0])
	data[40] ^= 0xff // flip a byte inside the first record's payload
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStoreDir(dir, DurableOptions{}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("recovery over corrupt log: %v, want ErrCorrupt", err)
	}
}

func TestAttachDirMigratesInMemoryStore(t *testing.T) {
	s, id, err := OpenDocument(paperDoc, "paper.xml", Config{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := s.AttachDir(dir, DurableOptions{}); err != nil {
		t.Fatalf("AttachDir: %v", err)
	}
	if _, err := s.LoadXML(uniDoc, "post-attach"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := LoadStoreDir(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("LoadStoreDir: %v", err)
	}
	defer s2.Close()
	if n := countDocs(t, s2, "TabUniversity"); n != 2 {
		t.Fatalf("migrated store recovered %d documents, want 2", n)
	}
	if xml, err := s2.RetrieveXML(id); err != nil || !strings.Contains(xml, "&cs;") {
		t.Fatalf("pre-attach document lost fidelity: %v", err)
	}
}

func TestOpenSharedRefusedOnDurableStore(t *testing.T) {
	s := openDurT(t, t.TempDir(), DurableOptions{})
	if _, err := OpenShared(s, workload.UniversityDTD, "University", Config{SchemaID: "S2"}); err == nil {
		t.Fatal("OpenShared on a durable store was not refused")
	}
}

func TestLoadStoreDirRequiresCheckpoint(t *testing.T) {
	if _, err := LoadStoreDir(t.TempDir(), DurableOptions{}); err == nil {
		t.Fatal("LoadStoreDir accepted an empty directory")
	}
}

func TestCheckpointSurvivesCrashBetweenSnapshotAndPointer(t *testing.T) {
	// A new snapshot file without an updated CHECKPOINT pointer (crash in
	// the middle of Checkpoint) must be ignored: recovery uses the old
	// snapshot plus the full WAL tail.
	dir := t.TempDir()
	s := openDurT(t, dir, DurableOptions{})
	if _, err := s.LoadXML(uniDoc, "u1"); err != nil {
		t.Fatal(err)
	}
	// Fake the orphan snapshot: copy the real one under a future LSN name.
	ckpt, err := readCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, snapshotFileName(ckpt)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotFileName(ckpt+99)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openDurT(t, dir, DurableOptions{})
	if n := countDocs(t, s2, "TabUniversity"); n != 1 {
		t.Fatalf("recovered %d documents, want 1", n)
	}
	st, _ := s2.WALStats()
	if st.Replayed != 1 {
		t.Fatalf("replayed %d, want 1 (old pointer + full tail)", st.Replayed)
	}
}

func TestDescribeWALRecord(t *testing.T) {
	dir := t.TempDir()
	s := openDurT(t, dir, DurableOptions{})
	id, _ := s.LoadXML(uniDoc, "u1")
	s.DeleteDocument(id)
	s.Exec(`CREATE TABLE TabT (A NUMBER)`)
	s.Close()
	log, err := wal.Open(filepath.Join(dir, walDirName), wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	var lines []string
	if _, err := log.Replay(1, func(r wal.Record) error {
		lines = append(lines, DescribeWALRecord(r))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"LOAD doc 1", "DELETE doc 1", "SQL CREATE TABLE"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("wal dump missing %q:\n%s", want, joined)
		}
	}
}

// Satellite regression test: LoadStore must refuse snapshots whose
// version it does not understand instead of misinterpreting them.
func TestLoadStoreRejectsUnknownVersion(t *testing.T) {
	s, _, err := OpenDocument(paperDoc, "p", Config{DisableMetadata: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Craft a snapshot through the real type so the gob stream is
	// otherwise well-formed — only the version is from the future.
	snap := storeSnapshot{Version: 99, DTDText: "x", Root: "x"}
	var enc bytes.Buffer
	if err := gob.NewEncoder(&enc).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStore(&enc); err == nil ||
		!strings.Contains(err.Error(), "unsupported snapshot version") {
		t.Fatalf("future snapshot version accepted: %v", err)
	}
}

// TestDocIDsRecoverAfterDeletingNewest is the regression for the DocID
// allocator consulting state no snapshot carries: load ×3, delete the
// newest, checkpoint, load once more. The metadata-less allocator used
// to remember the deleted ID in memory and log DocID 4, which replay —
// starting from a snapshot holding documents 1 and 2 — could only
// re-derive as 3, so the directory never opened again. With one
// state-derived allocator both metadata modes hand out the same IDs and
// recover them.
func TestDocIDsRecoverAfterDeletingNewest(t *testing.T) {
	var assigned [2][]int
	for i, noMeta := range []bool{false, true} {
		dir := t.TempDir()
		s, err := OpenDir(dir, workload.UniversityDTD, "University", Config{DisableMetadata: noMeta}, DurableOptions{})
		if err != nil {
			t.Fatalf("DisableMetadata=%v: OpenDir: %v", noMeta, err)
		}
		load := func(name string) int {
			t.Helper()
			id, err := s.LoadXML(uniDoc, name)
			if err != nil {
				t.Fatalf("DisableMetadata=%v: load %s: %v", noMeta, name, err)
			}
			assigned[i] = append(assigned[i], id)
			return id
		}
		load("u1")
		load("u2")
		newest := load("u3")
		if err := s.DeleteDocument(newest); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		last := load("u4")
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := LoadStoreDir(dir, DurableOptions{})
		if err != nil {
			t.Fatalf("DisableMetadata=%v: reopening: %v", noMeta, err)
		}
		if n := countDocs(t, s2, "TabUniversity"); n != 3 {
			t.Errorf("DisableMetadata=%v: recovered %d documents, want 3", noMeta, n)
		}
		if _, err := s2.RetrieveXML(last); err != nil {
			t.Errorf("DisableMetadata=%v: retrieve %d after recovery: %v", noMeta, last, err)
		}
		s2.Close()
	}
	if fmt.Sprint(assigned[0]) != fmt.Sprint(assigned[1]) {
		t.Errorf("DocIDs differ by metadata mode: with %v, without %v", assigned[0], assigned[1])
	}
}
