// The store-level load path, in its two halves. PrepareXML does
// everything that needs no engine — parse, DTD validation, the loader's
// Prepare (for pure nested schemas the full shred into a root-row value
// tree) — so a pool of workers can run it concurrently; LoadPrepared
// applies a prepared document under the single-writer discipline, inside
// whatever transaction is open, so a batch of documents becomes one
// engine commit, one WAL commit unit, and one published MVCC version.
// Load and LoadXML are the two halves back to back; WAL replay, replica
// apply and internal/ingest all come through here.
package xmlordb

import (
	"sync/atomic"
	"time"

	"xmlordb/internal/dtd"
	"xmlordb/internal/loader"
	"xmlordb/internal/xmldom"
	"xmlordb/internal/xmlparser"
)

// PreparedDoc is one parsed, validated and prepared document awaiting
// LoadPrepared.
type PreparedDoc struct {
	// Name is the document name registered in the meta-database.
	Name string
	// XML is the original text, kept byte-for-byte for the WAL redo
	// record (empty when the document arrived as a DOM).
	XML string
	// Doc is the parsed DOM.
	Doc *xmldom.Document
	// prep is the loader's half: the engine-free shred, or for schemas
	// that store rows by REF a deferred one (see loader.Prepare).
	prep *loader.Prepared
}

// PrepareXML parses, validates and prepares a document without touching
// the engine, so any number of goroutines may call it concurrently while
// a single writer applies the results with LoadPrepared. Pure nested
// schemas are shredded into row values here; schemas that store rows by
// REF (recursion, ID targets, StrategyRef) shred inside LoadPrepared's
// transaction, because the shred is itself a sequence of inserts.
func (s *Store) PrepareXML(xmlText, docName string) (*PreparedDoc, error) {
	res, err := xmlparser.ParseWith(xmlText, xmlparser.Options{KeepEntityRefs: true})
	if err != nil {
		return nil, err
	}
	return s.prepare(res.Doc, docName, xmlText)
}

// prepare validates a parsed document against the store's DTD and runs
// the loader's Prepare on it.
func (s *Store) prepare(doc *xmldom.Document, docName, xmlText string) (*PreparedDoc, error) {
	if err := dtd.Validate(s.DTD, doc); err != nil {
		return nil, err
	}
	prep, err := s.Loader.Prepare(doc)
	if err != nil {
		return nil, err
	}
	return &PreparedDoc{Name: docName, XML: xmlText, Doc: doc, prep: prep}, nil
}

// LoadPrepared applies one prepared document and returns its DocID: the
// single place a document enters the store. The DocID is one more than
// the highest stored one (see loader's allocator), so it depends on
// apply order alone. The caller must hold the store's writer exclusion.
// The apply and its redo record share one engine transaction, so the
// record reaches the log (TxCommitted) before the one publish that makes
// the document visible: no reader ever retrieves a document the log does
// not hold, and the version that first carries it is stamped with its
// LSN. Inside an open engine transaction the document joins it through
// a savepoint, so a failed document rolls back alone while the rest of
// the batch stands — the ingest commit stage's per-document isolation —
// and the WAL record is buffered with the enclosing transaction,
// reaching the log as part of its single commit unit.
func (s *Store) LoadPrepared(p *PreparedDoc) (int, error) {
	var id int
	err := s.Engine.DB().RunInTx(func() error {
		var err error
		if id, err = s.Loader.LoadPrepared(p.Doc, p.Name, p.prep); err != nil {
			return err
		}
		return s.walLogLoad(p.Doc, p.Name, p.XML, id)
	})
	if err != nil {
		return 0, err
	}
	return id, nil
}

// ingestCounters accumulate bulk-ingest activity for STATS. Plain
// atomics: they are written by the single ingest writer and read
// lock-free by statsPayload.
type ingestCounters struct {
	runs    atomic.Int64
	docs    atomic.Int64
	failed  atomic.Int64
	batches atomic.Int64
	bytes   atomic.Int64
	nanos   atomic.Int64
	workers atomic.Int64 // workers of the most recent run
}

// IngestStats reports cumulative bulk-ingest counters for the store.
type IngestStats struct {
	// Runs counts completed ingest runs (successful or not).
	Runs int64
	// Docs / Failed count documents loaded and documents rejected.
	Docs, Failed int64
	// Batches counts engine commits (= WAL commit units) the runs used.
	Batches int64
	// Bytes totals the XML text ingested.
	Bytes int64
	// Nanos totals wall-clock ingest time.
	Nanos int64
	// Workers is the worker count of the most recent run.
	Workers int64
}

// DocsPerSec is the cumulative ingest rate (0 when no time recorded).
func (is IngestStats) DocsPerSec() float64 {
	if is.Nanos <= 0 {
		return 0
	}
	return float64(is.Docs) / (float64(is.Nanos) / float64(time.Second))
}

// AddIngestStats accumulates one ingest run's counters (called by
// internal/ingest when a run finishes).
func (s *Store) AddIngestStats(docs, failed, batches int64, bytes int64, elapsed time.Duration, workers int) {
	s.ingest.runs.Add(1)
	s.ingest.docs.Add(docs)
	s.ingest.failed.Add(failed)
	s.ingest.batches.Add(batches)
	s.ingest.bytes.Add(bytes)
	s.ingest.nanos.Add(int64(elapsed))
	s.ingest.workers.Store(int64(workers))
}

// IngestStats reports the store's cumulative bulk-ingest counters.
func (s *Store) IngestStats() IngestStats {
	return IngestStats{
		Runs:    s.ingest.runs.Load(),
		Docs:    s.ingest.docs.Load(),
		Failed:  s.ingest.failed.Load(),
		Batches: s.ingest.batches.Load(),
		Bytes:   s.ingest.bytes.Load(),
		Nanos:   s.ingest.nanos.Load(),
		Workers: s.ingest.workers.Load(),
	}
}
