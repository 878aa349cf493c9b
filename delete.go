package xmlordb

import (
	"errors"
	"fmt"
	"sort"

	"xmlordb/internal/mapping"
	"xmlordb/internal/meta"
	"xmlordb/internal/ordb"
)

// sortedRefs returns the set's members ordered by table name then OID.
func sortedRefs(refs map[ordb.Ref]bool) []ordb.Ref {
	out := make([]ordb.Ref, 0, len(refs))
	for ref := range refs {
		out = append(out, ref)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].OID < out[j].OID
	})
	return out
}

// DeleteDocument removes a stored document: the root-table row, every
// object-table row reachable from it (REF-stored elements under the
// Oracle 8 strategy, recursive elements and ID targets under the nested
// strategy, including child-table rows holding parent back-REFs), and the
// TabMetadata registration. The per-table deletes run in one engine
// transaction: a failure at any step restores every already-deleted row,
// so the document is never left half-removed. The redo record joins the
// same transaction and is flushed by its commit, before the version
// without the document is published (see LoadPrepared).
func (s *Store) DeleteDocument(docID int) error {
	return s.Engine.DB().RunInTx(func() error {
		if err := s.deleteDocument(docID); err != nil {
			return err
		}
		return s.walLogDelete(docID)
	})
}

func (s *Store) deleteDocument(docID int) error {
	db := s.Engine.DB()
	rootTab, err := db.Table(s.Schema.RootTable)
	if err != nil {
		return err
	}
	root := meta.DocRow(rootTab, docID)
	if root == nil {
		return fmt.Errorf("xmlordb: document %d not found in %s", docID, s.Schema.RootTable)
	}
	// Collect every row object belonging to the document: the REFs of the
	// root row, then, wave by wave, the REFs inside each collected row and
	// the child-table rows pointing back at it (StrategyRef back-pointers).
	// Each REF is expanded exactly once, and every wave is walked in sorted
	// order so the deref (and therefore fault-injection) sequence is
	// deterministic across runs. The expansion keeps the row it found, so
	// the deletes below visit no other row.
	refs := map[ordb.Ref]bool{}
	for _, v := range root.Vals[1:] {
		s.collectRefs(v, refs)
	}
	rows := map[ordb.Ref]*ordb.Row{}
	for wave := sortedRefs(refs); len(wave) > 0; {
		found := map[ordb.Ref]bool{}
		for _, ref := range wave {
			if err := s.collectChildTableRefs(ref, found); err != nil {
				return err
			}
			_, row, err := db.DerefRow(ref)
			if err != nil {
				if errors.Is(err, ordb.ErrDanglingRef) {
					continue // target already gone
				}
				// Any other failure (e.g. an injected fault) must abort —
				// an incomplete closure would orphan unreachable rows.
				return err
			}
			rows[ref] = row
			for _, v := range row.Vals {
				s.collectRefs(v, found)
			}
		}
		for ref := range found {
			if refs[ref] {
				delete(found, ref) // expanded already
			} else {
				refs[ref] = true
			}
		}
		wave = sortedRefs(found)
	}
	// Delete the collected rows per table, in table-name order (again for
	// a deterministic delete/fault sequence): one DeleteRows, and so one
	// fault point, per table a REF reached, even when its rows are gone.
	var tables []string
	byTable := map[string][]*ordb.Row{}
	for _, ref := range sortedRefs(refs) {
		if _, seen := byTable[ref.Table]; !seen {
			tables = append(tables, ref.Table)
			byTable[ref.Table] = nil
		}
		if row := rows[ref]; row != nil {
			byTable[ref.Table] = append(byTable[ref.Table], row)
		}
	}
	for _, table := range tables {
		tab, err := db.Table(table)
		if err != nil {
			return err
		}
		if _, err := tab.DeleteRows(byTable[table]); err != nil {
			return err
		}
	}
	if _, err := rootTab.DeleteRows([]*ordb.Row{root}); err != nil {
		return err
	}
	// Delete the meta registration.
	if s.Meta != nil {
		if metaTab, err := db.Table("TabMetadata"); err == nil {
			var reg []*ordb.Row
			if row := meta.DocRow(metaTab, docID); row != nil {
				reg = append(reg, row)
			}
			if _, err := metaTab.DeleteRows(reg); err != nil {
				return err
			}
		}
	}
	return nil
}

// collectRefs walks a value collecting REFs (without dereferencing).
func (s *Store) collectRefs(v ordb.Value, out map[ordb.Ref]bool) {
	switch x := v.(type) {
	case ordb.Ref:
		out[x] = true
	case *ordb.Object:
		for _, a := range x.Attrs {
			s.collectRefs(a, out)
		}
	case *ordb.Coll:
		for _, e := range x.Elems {
			s.collectRefs(e, out)
		}
	}
}

// collectChildTableRefs adds the rows of child tables whose parent REF
// points at ref (the Section 4.2 variant, where the parent has no column
// for the relationship), found by probing the index every REF column
// carries.
func (s *Store) collectChildTableRefs(ref ordb.Ref, out map[ordb.Ref]bool) error {
	for _, m := range s.Schema.Elems {
		if m.ObjectTable == "" {
			continue
		}
		for _, f := range m.Fields {
			if f.Kind != mapping.FieldParentRef {
				continue
			}
			if pm := s.Schema.Elems[f.RefTarget]; pm == nil || pm.ObjectTable != ref.Table {
				continue
			}
			tab, err := s.Engine.DB().Table(m.ObjectTable)
			if err != nil {
				return err
			}
			rows, ok := tab.ProbeEqual(f.DBName, ref)
			if !ok {
				return fmt.Errorf("xmlordb: %s.%s has no index to find the children of %s by", tab.Name, f.DBName, ref.Table)
			}
			for _, r := range rows {
				out[ordb.Ref{Table: m.ObjectTable, OID: r.OID}] = true
			}
		}
	}
	return nil
}
