package xmlordb

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"xmlordb/internal/loader"
	"xmlordb/internal/meta"
	"xmlordb/internal/retrieval"
	"xmlordb/internal/sql"
)

func loadEngineSnapshot(data []byte) (*sql.Engine, error) {
	en, err := sql.LoadSnapshot(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("xmlordb: restoring engine state: %w", err)
	}
	return en, nil
}

// storeSnapshot is the on-disk form of a whole Store: the document type
// definition (from which the mapping regenerates deterministically — see
// TestPropertySQLScriptStability), the configuration, and the engine's
// data snapshot.
type storeSnapshot struct {
	Version int
	DTDText string
	Root    string
	Cfg     Config
	Engine  []byte
}

// Save writes the complete store — schema and all stored documents — to
// w. The snapshot restores with LoadStore.
func (s *Store) Save(w io.Writer) error {
	var engineBuf bytes.Buffer
	if err := s.Engine.SaveSnapshot(&engineBuf); err != nil {
		return fmt.Errorf("xmlordb: saving engine state: %w", err)
	}
	snap := storeSnapshot{
		Version: 1,
		DTDText: s.DTD.String(),
		Root:    s.Tree.Root.Name,
		Cfg:     s.cfg,
		Engine:  engineBuf.Bytes(),
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// LoadStore rebuilds a store from a Save snapshot: the mapping is
// regenerated from the saved DTD (schema generation is deterministic),
// and the engine state — including object identifiers, so REFs stay
// valid — is restored verbatim.
func LoadStore(r io.Reader) (*Store, error) {
	var snap storeSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("xmlordb: decoding snapshot: %w", err)
	}
	if snap.Version != 1 {
		return nil, fmt.Errorf("xmlordb: unsupported snapshot version %d", snap.Version)
	}
	// Regenerate the mapping dictionary (without touching a database).
	probe, err := Open(snap.DTDText, snap.Root, snap.Cfg)
	if err != nil {
		return nil, fmt.Errorf("xmlordb: regenerating schema: %w", err)
	}
	// Restore the engine with the saved data and swap it in.
	en, err := loadEngineSnapshot(snap.Engine)
	if err != nil {
		return nil, err
	}
	s := &Store{
		cfg:       snap.Cfg,
		DTD:       probe.DTD,
		Tree:      probe.Tree,
		Schema:    probe.Schema,
		Engine:    en,
		Loader:    loader.New(probe.Schema, en),
		Retriever: retrieval.New(probe.Schema, en),
	}
	if !snap.Cfg.DisableMetadata {
		store, err := meta.Install(en) // TabMetadata already exists: attach
		if err != nil {
			return nil, err
		}
		s.Meta = store
		s.Loader.Meta = store
		s.Retriever.Meta = store
	}
	return s, nil
}
