package xmlordb

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
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
