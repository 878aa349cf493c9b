// Document preparation: the half of a load that needs no engine, and
// therefore no writer exclusion. Prepare checks the document against the
// schema root and, when the schema allows, shreds it into the root row's
// nested value tree, so many documents can be shredded concurrently on
// worker goroutines (internal/ingest); LoadPrepared (loader.go) then
// stores the prepared document under the engine's single-writer
// discipline, patching in the DocID that only the commit order decides.
//
// Only the paper's pure nested mapping shreds off the engine: a schema
// that stores rows by REF (recursion, ID targets, StrategyRef) needs each
// object-table row's OID before it can build the REF value pointing at
// it — the same boundary InsertSQL draws. For such a schema Prepare returns a
// deferred Prepared and LoadPrepared shreds inside its transaction.
package loader

import (
	"fmt"

	"xmlordb/internal/ordb"
	"xmlordb/internal/xmldom"
)

// Prepared is one document ready for LoadPrepared: either the engine-free
// shredding of its root row — the field values (DocID placeholders
// included) plus the index paths of every FieldDocID slot awaiting the
// real DocID — or, deferred, only the proof that the root matches.
type Prepared struct {
	fields     []ordb.Value
	docIDPaths [][]int
	deferred   bool
}

// Prepare readies the document for LoadPrepared without touching the
// engine. It is safe to call from many goroutines concurrently — it
// reads only the immutable schema — which is exactly how the ingest
// worker pool uses it. An error means the document itself is unloadable.
func (l *Loader) Prepare(doc *xmldom.Document) (*Prepared, error) {
	root := doc.Root()
	if root == nil {
		return nil, fmt.Errorf("loader: document has no root element")
	}
	if root.Name != l.sch.RootElem {
		return nil, fmt.Errorf("loader: document root %q does not match schema root %q",
			root.Name, l.sch.RootElem)
	}
	if l.refRows {
		return &Prepared{deferred: true}, nil
	}
	st := l.newLoad()
	st.recordDocID = true
	fields, err := st.buildVals(root, l.sch.Elems[root.Name], nil, 1)
	if err != nil {
		return nil, err
	}
	if len(st.pending) > 0 {
		// An IDREF can only resolve against object-table rows, of which
		// this schema has none; defer so the dangling reference fails in
		// LoadPrepared's fixup step like any other.
		return &Prepared{deferred: true}, nil
	}
	return &Prepared{fields: fields, docIDPaths: st.docIDPaths}, nil
}
