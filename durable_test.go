package xmlordb

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"xmlordb/internal/ordb"
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

// TestSyncPolicyFsyncsPerCommit: under sync=always each serial document
// commit pays its own fsync; under sync=never commits pay none and
// durability waits for a checkpoint.
func TestSyncPolicyFsyncsPerCommit(t *testing.T) {
	const loads = 10
	for _, tc := range []struct {
		policy wal.SyncPolicy
		want   int64
	}{{wal.SyncAlways, loads}, {wal.SyncNever, 0}} {
		s := openDurT(t, t.TempDir(), DurableOptions{Sync: tc.policy})
		before, _ := s.WALStats()
		for i := 0; i < loads; i++ {
			if _, err := s.LoadXML(uniDoc, fmt.Sprintf("d%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		after, _ := s.WALStats()
		if got := after.Fsyncs - before.Fsyncs; got != tc.want {
			t.Errorf("sync=%s: %d serial commits issued %d fsyncs, want %d", tc.policy, loads, got, tc.want)
		}
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

// TestAllocatorMatchesFullScan: the O(1) answer the DocID allocator reads
// (ordb.Table.MaxInt on the key table) equals a full scan after every
// step of a seeded random mix of everything that can move the highest
// DocID — loads, deleting the newest and the oldest document, a load
// that fails after its rows went in, a savepoint rollback inside a batch,
// SQL INSERT/UPDATE/DELETE on the key column, checkpoint + reopen and WAL
// replay — in both metadata modes. Every successful load must also get
// exactly scan-maximum + 1.
func TestAllocatorMatchesFullScan(t *testing.T) {
	for _, noMeta := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("noMeta=%v/seed%d", noMeta, seed)
			t.Run(name, func(t *testing.T) { runAllocatorOracle(t, noMeta, seed) })
		}
	}
}

func runAllocatorOracle(t *testing.T, noMeta bool, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	s, err := OpenDir(dir, workload.UniversityDTD, "University", Config{DisableMetadata: noMeta}, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()

	keyTable, keyInsert := "TabMetadata", "INSERT INTO TabMetadata VALUES(%d, 'sql', NULL, NULL, NULL, NULL, NULL, NULL, NULL, NULL, NULL)"
	if noMeta {
		keyTable, keyInsert = "TabUniversity", "INSERT INTO TabUniversity VALUES(%d, 'sql', NULL)"
	}
	scanMax := func() int {
		tab, err := s.DB().Table(keyTable)
		if err != nil {
			t.Fatal(err)
		}
		max := 0
		tab.Scan(func(r *ordb.Row) bool {
			if n, ok := r.Vals[0].(ordb.Num); ok && int(n) > max {
				max = int(n)
			}
			return true
		})
		return max
	}
	step := 0
	check := func(what string) {
		t.Helper()
		tab, err := s.DB().Table(keyTable)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tab.MaxInt(0), scanMax(); got != want {
			t.Fatalf("step %d (%s): MaxInt = %d, full scan = %d", step, what, got, want)
		}
	}
	var live []int // loaded documents, oldest first
	load := func(what string) {
		t.Helper()
		want := scanMax() + 1
		id, err := s.LoadXML(uniDoc, fmt.Sprintf("doc-%d", step))
		if err != nil {
			t.Fatalf("step %d (%s): %v", step, what, err)
		}
		if id != want {
			t.Fatalf("step %d (%s): DocID %d, highest stored + 1 = %d", step, what, id, want)
		}
		live = append(live, id)
	}
	exec := func(format string, args ...any) {
		t.Helper()
		stmt := fmt.Sprintf(format, args...)
		if _, err := s.Exec(stmt); err != nil {
			t.Fatalf("step %d: %s: %v", step, stmt, err)
		}
		check(stmt)
	}
	reopen := func(what string) {
		t.Helper()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s, err = LoadStoreDir(dir, DurableOptions{}); err != nil {
			t.Fatalf("step %d (%s): %v", step, what, err)
		}
	}

	for ; step < 120; step++ {
		switch op := rng.Intn(12); op {
		case 0, 1, 2, 3:
			load("load")
			check("load")
		case 4, 5: // delete the newest / the oldest document
			if len(live) == 0 {
				break
			}
			i := 0
			if op == 4 {
				i = len(live) - 1
			}
			if err := s.DeleteDocument(live[i]); err != nil {
				t.Fatalf("step %d: delete %d: %v", step, live[i], err)
			}
			live = append(live[:i], live[i+1:]...)
			check("delete")
		case 6: // a load that fails once its first row is in
			s.DB().SetFaultHook(func(op string, n int64) error {
				if op == ordb.FaultInsert && n == 2 {
					return errors.New("injected")
				}
				return nil
			})
			tx, err := s.DB().Begin()
			if err != nil {
				t.Fatal(err)
			}
			// Two documents in one transaction: the second one's second
			// insert is its root row (meta-database on) or the first one's
			// successor (off); either way rows inserted before the fault
			// leave again.
			_, err1 := s.LoadXML(uniDoc, "doomed-1")
			_, err2 := s.LoadXML(uniDoc, "doomed-2")
			s.DB().SetFaultHook(nil)
			if err1 == nil && err2 == nil {
				t.Fatalf("step %d: injected fault failed no load", step)
			}
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
			check("failed load")
		case 7: // a batch whose middle document is rolled back to a savepoint
			tx, err := s.DB().Begin()
			if err != nil {
				t.Fatal(err)
			}
			load("batch, first")
			if err := tx.Savepoint("sp"); err != nil {
				t.Fatal(err)
			}
			load("batch, rolled back")
			live = live[:len(live)-1]
			if err := tx.RollbackTo("sp"); err != nil {
				t.Fatal(err)
			}
			check("savepoint rollback")
			load("batch, last")
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			check("batch commit")
		case 8, 9: // user SQL on the key column: out of order, up, down, gone
			k := scanMax() + 5
			exec(keyInsert, k)
			exec("UPDATE %s SET DocID = %d WHERE DocID = %d", keyTable, k+2, k)
			exec("UPDATE %s SET DocID = %d WHERE DocID = %d", keyTable, k-1, k+2)
			if op == 8 {
				exec("DELETE FROM %s WHERE DocID = %d", keyTable, k-1)
			}
		case 10: // checkpoint + reopen: the snapshot carries rows, no counter
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			reopen("checkpoint + reopen")
			check("checkpoint + reopen")
		case 11: // reopen without a checkpoint: replay must re-derive every logged DocID
			reopen("wal replay")
			check("wal replay")
		}
	}
	reopen("final replay")
	check("final replay")
	for _, id := range live {
		if _, err := s.RetrieveXML(id); err != nil {
			t.Errorf("document %d: %v", id, err)
		}
	}
}

// TestLoadScansNothingWhateverIsStored: the engine rows one LoadXML reads
// do not depend on how many documents the store holds — 0 with 10 stored
// and with 2 000, in both metadata modes, and 0 again right after the
// newest document was deleted, when the DocID maximum must come from the
// rows left.
func TestLoadScansNothingWhateverIsStored(t *testing.T) {
	for _, noMeta := range []bool{false, true} {
		s, err := Open(workload.UniversityDTD, "University", Config{DisableMetadata: noMeta})
		if err != nil {
			t.Fatal(err)
		}
		stored, newest := 0, 0
		for _, size := range []int{10, 2000} {
			for ; stored < size; stored++ {
				if newest, err = s.LoadXML(uniDoc, "fill"); err != nil {
					t.Fatal(err)
				}
			}
			for _, afterDelete := range []bool{false, true} {
				if afterDelete {
					if err := s.DeleteDocument(newest); err != nil {
						t.Fatal(err)
					}
					stored--
				}
				before := s.DB().Stats().RowsScanned
				if newest, err = s.LoadXML(uniDoc, "probe"); err != nil {
					t.Fatal(err)
				}
				stored++
				if d := s.DB().Stats().RowsScanned - before; d != 0 {
					t.Errorf("DisableMetadata=%v, newest deleted=%v: LoadXML with %d documents stored scanned %d rows, want 0", noMeta, afterDelete, size, d)
				}
			}
		}
	}
}

// TestLoadBytesIndependentOfSchemasInstalled: a version shares the
// catalog, so the bytes one LoadXML allocates barely depend on how many
// schemas share the engine. With 128 more schemas installed (1 165 types,
// 130 tables) a load allocates at most twice what it does beside one.
func TestLoadBytesIndependentOfSchemasInstalled(t *testing.T) {
	perLoad := func(schemas int) float64 {
		s, err := Open(workload.UniversityDTD, "University", Config{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < schemas; i++ {
			if _, err := OpenShared(s, workload.UniversityDTD, "University", Config{SchemaID: fmt.Sprintf("S%d", i)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ { // warm up
			if _, err := s.LoadXML(uniDoc, "warm"); err != nil {
				t.Fatal(err)
			}
		}
		const loads = 200
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		for i := 0; i < loads; i++ {
			if _, err := s.LoadXML(uniDoc, "probe"); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&ms1)
		return float64(ms1.TotalAlloc-ms0.TotalAlloc) / loads
	}
	one, many := perLoad(0), perLoad(128)
	t.Logf("bytes per LoadXML: %.0f beside one schema, %.0f beside 129 (×%.2f)", one, many, many/one)
	if many > 2*one {
		t.Errorf("a LoadXML allocates %.0f B beside 129 schemas, %.0f B beside one: more than 2×", many, one)
	}
}

// TestRedoRecordPrecedesPublication: a stand-alone load or delete, and
// an autocommitted INSERT, UPDATE, DELETE or DDL statement, must reach the
// log before lock-free readers can see it. The WAL write is stalled;
// while it hangs, ReadView() still shows the old state and the published
// version's LSN has not moved. Once the append returns, the one version
// that carries the change is stamped with its record's LSN.
func TestRedoRecordPrecedesPublication(t *testing.T) {
	s := openDurT(t, t.TempDir(), DurableOptions{})
	first, err := s.LoadXML(uniDoc, "u1")
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	s.WAL().SetWriteHook(func(f *os.File, b []byte) (int, error) {
		entered <- struct{}{}
		<-release
		return f.Write(b)
	})
	defer s.WAL().SetWriteHook(nil)

	// stalled runs op with its append held, checking that changed (the
	// op's effect, read on a fresh ReadView) is false until the append
	// returns and true after.
	stalled := func(what string, changed func(rv *Store) bool, op func() error) {
		t.Helper()
		lsn := s.VersionLSN()
		done := make(chan error, 1)
		go func() { done <- op() }()
		select {
		case <-entered:
		case err := <-done:
			t.Fatalf("%s: finished without appending: %v", what, err)
		}
		if changed(s.ReadView()) {
			t.Errorf("%s: readers see the change while the redo record is still being written", what)
		}
		if got := s.VersionLSN(); got != lsn {
			t.Errorf("%s: published LSN moved %d -> %d before the append returned", what, lsn, got)
		}
		release <- struct{}{}
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !changed(s.ReadView()) {
			t.Fatalf("%s: readers do not see the change after the append returned", what)
		}
		if got, want := s.ReadView().VersionLSN(), s.WAL().LastLSN(); got != want || got == lsn {
			t.Errorf("%s: version LSN %d after the operation, log at %d, before %d", what, got, want, lsn)
		}
	}
	docs := func(n int) func(*Store) bool {
		return func(rv *Store) bool { return countDocs(t, rv, "TabUniversity") == n }
	}
	exec := func(stmt string) func() error {
		return func() error { _, err := s.Exec(stmt); return err }
	}
	stalled("load", docs(2), func() error { _, err := s.LoadXML(uniDoc, "u2"); return err })
	stalled("delete", docs(1), func() error { return s.DeleteDocument(first) })
	stalled("autocommit INSERT", docs(2), exec("INSERT INTO TabUniversity VALUES(900, 'sql', NULL)"))
	stalled("autocommit UPDATE", func(rv *Store) bool {
		rows, err := rv.Query("SELECT u.DocID FROM TabUniversity u WHERE u.attrStudyCourse = 'updated'")
		if err != nil {
			t.Fatal(err)
		}
		return len(rows.Data) == 1
	}, exec("UPDATE TabUniversity SET attrStudyCourse = 'updated' WHERE DocID = 900"))
	stalled("autocommit DELETE", docs(0), exec("DELETE FROM TabUniversity"))
	stalled("autocommit DDL", func(rv *Store) bool {
		_, err := rv.DB().Table("Extra")
		return err == nil
	}, exec("CREATE TABLE Extra (ID NUMBER)"))
}

// TestSharedMetadataSurvivesCheckpoint: documents whose TabMetadata rows
// share the schema's DocData/Entities values read back identically after
// checkpoint + reopen (the snapshot writes each row's values in full).
func TestSharedMetadataSurvivesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openDurT(t, dir, DurableOptions{})
	var ids []int
	for _, name := range []string{"u1", "u2"} {
		id, err := s.LoadXML(uniDoc, name)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	before := map[int]string{}
	for _, id := range ids {
		md, err := s.Meta.Document(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(md.Data) == 0 || len(md.Entities) == 0 {
			t.Fatalf("document %d: %d DocData entries, %d entities", id, len(md.Data), len(md.Entities))
		}
		md.Date = md.Date.UTC()
		before[id] = fmt.Sprintf("%+v", *md)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openDurT(t, dir, DurableOptions{})
	for _, id := range ids {
		md, err := s2.Meta.Document(id)
		if err != nil {
			t.Fatal(err)
		}
		md.Date = md.Date.UTC()
		if got := fmt.Sprintf("%+v", *md); got != before[id] {
			t.Errorf("document %d after checkpoint + reopen:\n%s\nbefore:\n%s", id, got, before[id])
		}
	}
}

// TestCheckpointKeepsIndexes: CREATE INDEX and DROP INDEX are logged as
// SQL, and the log before a checkpoint is pruned, so the checkpoint's
// snapshot must carry them. Live and recovered stores list the same
// indexes and plan the same queries; the document whose DocID index was
// dropped still retrieves and deletes.
func TestCheckpointKeepsIndexes(t *testing.T) {
	dir := t.TempDir()
	s := openDurT(t, dir, DurableOptions{})
	id, err := s.LoadXML(uniDoc, "u1")
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []string{
		`CREATE INDEX IX_B ON TabUniversity (attrStudyCourse)`,
		`DROP INDEX IX_TabUniversity_DocID`,
	} {
		if _, err := s.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	observe := func(s *Store) string {
		var b strings.Builder
		for _, name := range s.DB().TableNames() {
			tab, err := s.DB().Table(name)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s %v\n", name, tab.Indexes())
		}
		for _, q := range []string{
			`EXPLAIN SELECT u.DocID FROM TabUniversity u WHERE u.attrStudyCourse = 'Math'`,
			`EXPLAIN SELECT u.attrStudyCourse FROM TabUniversity u WHERE u.DocID = 1`,
		} {
			rows, err := s.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s\n%v\n", q, rows.Data)
		}
		return b.String()
	}
	live := observe(s)
	if !strings.Contains(live, "TabUniversity [{IX_B attrStudyCourse}]") {
		t.Fatalf("live indexes:\n%s", live)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := LoadStoreDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st, _ := s2.WALStats(); st.Replayed != 0 {
		t.Fatalf("replayed %d records after checkpoint, want 0", st.Replayed)
	}
	if got := observe(s2); got != live {
		t.Errorf("recovered:\n%s\nlive:\n%s", got, live)
	}
	if _, err := s2.RetrieveXML(id); err != nil {
		t.Fatal(err)
	}
	if err := s2.DeleteDocument(id); err != nil {
		t.Fatal(err)
	}
}
