package xmlordb

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmlordb/internal/ordb"
	"xmlordb/internal/workload"
)

// On-disk compatibility. testdata/compat/pr15 holds one durable
// directory per mapping strategy, written by writeCompatDir at the last
// commit whose Config still had the three B-tree backend fields (PR 15),
// together with want.json: the retrieval hash of every surviving
// document and the DocID the next load receives, as that commit
// computed them. A change to Config, to the checkpoint encoding or to a
// WAL record format that breaks recovery of an existing directory fails
// here. To add a fixture for a later format, run writeCompatDir and
// compatObserve at that commit and check the result in beside this one;
// never regenerate pr15.

var compatConfigs = map[string]Config{
	"nested": {},
	"ref":    {Strategy: StrategyRef},
}

// compatState is what a recovered directory must reproduce.
type compatState struct {
	// Docs maps a live DocID to the SHA-256 of its RetrieveXML text.
	Docs map[int]string
	// NextDocID is the DocID the first load after recovery receives.
	NextDocID int
}

func compatDoc(i int) string {
	return fmt.Sprintf(`<?xml version="1.0"?>
<!DOCTYPE University [
%s
]>
<University><StudyCourse>&cs;</StudyCourse>
<Student StudNr="%d"><LName>Conrad-%d</LName><FName>Matthias</FName>
<Course><Name>CAD Intro</Name>
<Professor><PName>Jaeger</PName><Subject>CAD</Subject><Subject>CAE</Subject><Dept>&cs;</Dept></Professor>
<CreditPts>4</CreditPts></Course></Student>
<Student StudNr="%d"><LName>Meier</LName><FName>Ralf</FName></Student>
</University>`, workload.UniversityDTD, 100+i, i, 200+i)
}

// writeCompatDir writes the scripted history into dir: three loads and a
// checkpoint, then a WAL tail holding a load, a delete and one explicit
// transaction of two loads. It closes without a second checkpoint, so
// recovery has to replay the tail.
func writeCompatDir(t *testing.T, dir string, cfg Config) {
	t.Helper()
	s, err := OpenDir(dir, workload.UniversityDTD, "University", cfg, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	load := func() int {
		id, err := s.LoadXML(compatDoc(n), fmt.Sprintf("compat-%d", n))
		if err != nil {
			t.Fatalf("load %d: %v", n, err)
		}
		n++
		return id
	}
	load()
	second := load()
	load()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	load()
	if err := s.DeleteDocument(second); err != nil {
		t.Fatal(err)
	}
	tx, err := s.DB().Begin()
	if err != nil {
		t.Fatal(err)
	}
	load()
	load()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// compatObserve reads the state of an open store. It loads one document
// to learn the next DocID, so it runs last on any given store.
func compatObserve(t *testing.T, s *Store) compatState {
	t.Helper()
	st := compatState{Docs: map[int]string{}}
	rows, err := s.Query("SELECT DocID FROM " + s.Schema.RootTable)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows.Data {
		id := int(r[0].(ordb.Num))
		xml, err := s.RetrieveXML(id)
		if err != nil {
			t.Fatalf("retrieve %d: %v", id, err)
		}
		sum := sha256.Sum256([]byte(xml))
		st.Docs[id] = hex.EncodeToString(sum[:])
	}
	if st.NextDocID, err = s.LoadXML(compatDoc(99), "compat-next"); err != nil {
		t.Fatal(err)
	}
	return st
}

// testdata/compat/refindex holds a StrategyRef directory written by
// writeRefIndexDir at the last commit whose REF columns had no automatic
// index. Its WAL tail holds a CREATE INDEX on a REF column, which that
// code accepted and logged as SQL. The column now carries an automatic
// index; on replay the explicit index replaces it.

const refIndexStmt = `CREATE INDEX IX_StudentParent ON TabStudent (attrParentUniversity)`

// writeRefIndexDir writes two loads and a checkpoint, then a WAL tail of
// refIndexStmt and one more load, and returns the store still open.
func writeRefIndexDir(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := OpenDir(dir, workload.UniversityDTD, "University", Config{Strategy: StrategyRef}, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	load := func(i int) {
		if _, err := s.LoadXML(compatDoc(i), fmt.Sprintf("compat-%d", i)); err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
	}
	load(0)
	load(1)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(refIndexStmt); err != nil {
		t.Fatal(err)
	}
	load(2)
	return s
}

// refIndexObserve renders every table's indexes, the plan of a join on
// the REF column and the retrieval hash of every document.
func refIndexObserve(t *testing.T, s *Store) string {
	t.Helper()
	var b strings.Builder
	for _, name := range s.DB().TableNames() {
		tab, err := s.DB().Table(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %v\n", name, tab.Indexes())
	}
	rows, err := s.Query(`EXPLAIN SELECT s.attrLName FROM TabUniversityDoc d, TabStudent s
		WHERE d.DocID = 1 AND s.attrParentUniversity = d.attrUniversity`)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "%v\n", rows.Data)
	for id := 1; id <= 3; id++ {
		xml, err := s.RetrieveXML(id)
		if err != nil {
			t.Fatalf("retrieve %d: %v", id, err)
		}
		fmt.Fprintf(&b, "doc %d %x\n", id, sha256.Sum256([]byte(xml)))
	}
	return b.String()
}

// TestCompatCreateIndexOnRefColumnRecovers: a log written before REF
// columns were indexed automatically, holding a CREATE INDEX on one,
// still replays. The recovered store lists the same indexes, plans the
// same probe and retrieves the same documents as the live store that
// wrote such a log with this code, before and after a checkpoint.
func TestCompatCreateIndexOnRefColumnRecovers(t *testing.T) {
	fresh := filepath.Join(t.TempDir(), "fresh")
	s := writeRefIndexDir(t, fresh)
	live := refIndexObserve(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"TabStudent [{IX_TabStudent_IDStudent IDStudent} {IX_StudentParent attrParentUniversity}]",
		"IndexProbe TabStudent AS s (attrParentUniversity = d.attrUniversity)",
	} {
		if !strings.Contains(live, want) {
			t.Fatalf("live store lacks %q:\n%s", want, live)
		}
	}
	for _, origin := range []string{"fixture", "fresh"} {
		t.Run(origin, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "d")
			if origin == "fixture" {
				copyDir(t, dir, "testdata/compat/refindex")
			} else {
				copyDir(t, dir, fresh)
			}
			for _, step := range []string{"recover", "checkpoint + reopen"} {
				s, err := LoadStoreDir(dir, DurableOptions{})
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				if ws, _ := s.WALStats(); (ws.Replayed > 0) != (step == "recover") {
					t.Fatalf("%s replayed %d records", step, ws.Replayed)
				}
				if got := refIndexObserve(t, s); got != live {
					t.Errorf("%s:\n%s\nlive:\n%s", step, got, live)
				}
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func copyDir(t *testing.T, dst, src string) {
	t.Helper()
	err := filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCompatDirsRecover(t *testing.T) {
	var want map[string]compatState
	raw, err := os.ReadFile("testdata/compat/pr15/want.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for name, cfg := range compatConfigs {
		// A directory written by the parent commit and one written by this
		// code must recover to the same recorded state.
		for _, origin := range []string{"fixture", "fresh"} {
			t.Run(name+"/"+origin, func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "d")
				if origin == "fixture" {
					copyDir(t, dir, filepath.Join("testdata/compat/pr15", name))
				} else {
					writeCompatDir(t, dir, cfg)
				}
				check := func(step string, st compatState, w compatState) {
					t.Helper()
					if fmt.Sprint(st) != fmt.Sprint(w) {
						t.Fatalf("%s:\n got %v\nwant %v", step, st, w)
					}
				}
				s, err := LoadStoreDir(dir, DurableOptions{})
				if err != nil {
					t.Fatalf("recover: %v", err)
				}
				if ws, _ := s.WALStats(); ws.Replayed == 0 {
					t.Fatal("recovery replayed no WAL tail")
				}
				first := compatObserve(t, s)
				check("recover", first, want[name])
				// Checkpoint with this code's encoding and reopen once more:
				// the observation's own load is now part of the state.
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				s, err = LoadStoreDir(dir, DurableOptions{})
				if err != nil {
					t.Fatalf("reopen after checkpoint: %v", err)
				}
				defer s.Close()
				if ws, _ := s.WALStats(); ws.Replayed != 0 {
					t.Fatalf("replayed %d records after a checkpoint", ws.Replayed)
				}
				second := compatObserve(t, s)
				delete(second.Docs, first.NextDocID)
				check("checkpoint + reopen", second, compatState{Docs: first.Docs, NextDocID: first.NextDocID + 1})
			})
		}
	}
}
