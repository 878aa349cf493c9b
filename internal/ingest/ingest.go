// Package ingest is the concurrent bulk-load subsystem: a staged
// pipeline that loads a corpus of XML documents through an xmlordb
// Store far faster than a sequential Load loop.
//
// Stages:
//
//	source ──► N workers ──► ordered commit stage
//
// The source stage enumerates documents (directory walk, file list, or
// an in-memory batch) and assigns each a sequence number. The workers
// do everything that is safe off the engine — read the file, parse,
// DTD-validate, and (for pure nested schemas) shred the document into
// its root-row value tree via Store.PrepareXML — in parallel, with
// bounded channels providing backpressure so a slow commit stage
// throttles the readers instead of buffering the corpus in memory. The
// commit stage is the single writer: it reorders worker output back
// into sequence order (DocID assignment is a deterministic max-scan, so
// WAL replay demands commit order match record order), groups documents
// into engine transactions bounded by the BatchDocs/BatchBytes budgets,
// and commits each batch as one unit — one WAL commit unit (one fsync
// under SyncAlways, amortized across the whole batch) and one published
// MVCC version, so concurrent readers see each batch atomically and
// never a partial document.
//
// Per-document failures are isolated: inside a batch every document
// applies under its own savepoint (Store.LoadPrepared joins the open
// transaction through RunInTx), so a bad document rolls back alone.
// With KeepGoing the run records the typed failure (*DocError) and
// continues; without it the documents already applied commit, and the
// run stops at the failure. Context cancellation drains cleanly: the
// source stops, in-flight documents finish, the final batch commits,
// and Run returns ctx.Err().
//
// Run is a writer: callers must hold the store's single-writer
// exclusion for the duration (internal/server wraps the BULKLOAD verb
// in the store write lock; the CLIs own their store outright).
package ingest

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xmlordb"
)

// Default batch budgets: a batch commits when it holds DefaultBatchDocs
// documents or DefaultBatchBytes of XML text, whichever comes first.
const (
	DefaultBatchDocs  = 32
	DefaultBatchBytes = 4 << 20
)

// Options tune a Run. The zero value is valid: GOMAXPROCS workers and
// the default batch budgets.
type Options struct {
	// Workers is the parse+shred worker count; 0 means GOMAXPROCS,
	// negative is rejected.
	Workers int
	// BatchDocs caps documents per engine commit; 0 means
	// DefaultBatchDocs, negative is rejected.
	BatchDocs int
	// BatchBytes caps XML bytes per engine commit; 0 means
	// DefaultBatchBytes, negative is rejected.
	BatchBytes int64
	// KeepGoing records per-document failures and continues instead of
	// stopping the run at the first bad document.
	KeepGoing bool
	// Context cancels the run: the source stops, in-flight documents
	// drain, the final batch commits. Nil means Background.
	Context context.Context
}

// Normalize validates the knobs and fills defaults in place: Workers 0
// becomes GOMAXPROCS, zero batch budgets become the defaults, negative
// values are rejected.
func (o *Options) Normalize() error {
	if o.Workers < 0 {
		return fmt.Errorf("ingest: worker count must be >= 0 (0 = GOMAXPROCS), got %d", o.Workers)
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.BatchDocs < 0 {
		return fmt.Errorf("ingest: batch-docs budget must be >= 0 (0 = default %d), got %d", DefaultBatchDocs, o.BatchDocs)
	}
	if o.BatchDocs == 0 {
		o.BatchDocs = DefaultBatchDocs
	}
	if o.BatchBytes < 0 {
		return fmt.Errorf("ingest: batch-bytes budget must be >= 0 (0 = default %d), got %d", DefaultBatchBytes, o.BatchBytes)
	}
	if o.BatchBytes == 0 {
		o.BatchBytes = DefaultBatchBytes
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	return nil
}

// Pipeline stages, named in DocError.Stage.
const (
	StageRead    = "read"    // reading the file
	StagePrepare = "prepare" // parse / validate / shred
	StageLoad    = "load"    // applying the document in the commit stage
	StageCommit  = "commit"  // committing the batch (every document in it fails)
)

// DocError is one document's typed failure: which document, where in
// the pipeline, and why.
type DocError struct {
	Name  string
	Seq   int
	Stage string
	Err   error
}

func (e *DocError) Error() string {
	return fmt.Sprintf("%s: %s: %v", e.Name, e.Stage, e.Err)
}

func (e *DocError) Unwrap() error { return e.Err }

// DocResult is one document's outcome, in corpus order.
type DocResult struct {
	Seq   int
	Name  string
	DocID int   // assigned DocID when Err is nil
	Err   error // *DocError when the document failed
}

// Result summarizes a Run.
type Result struct {
	// Loaded and Failed count documents; Docs carries each outcome in
	// corpus order.
	Loaded, Failed int
	Docs           []DocResult
	// Batches counts engine commits; MaxBatchDocs is the largest batch.
	Batches      int
	MaxBatchDocs int
	// Bytes totals the XML text of loaded documents; Rows the engine
	// row inserts the run performed.
	Bytes int64
	Rows  int64
	// Elapsed is wall-clock time; Workers the worker count used;
	// Utilization the workers' busy fraction (1.0 = all workers busy
	// the whole run).
	Elapsed     time.Duration
	Workers     int
	Utilization float64
}

// DocsPerSec is the run's document throughput.
func (r *Result) DocsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Loaded) / r.Elapsed.Seconds()
}

type task struct {
	seq int
	doc Doc
}

type item struct {
	seq   int
	name  string
	bytes int
	prep  *xmlordb.PreparedDoc
	err   error
}

// Run ingests every document of src into store through the staged
// pipeline. It returns the Result (always non-nil, with whatever was
// committed) and the run error: nil on full success, the first
// *DocError when KeepGoing is off and a document failed, ctx.Err()
// after cancellation. With KeepGoing, per-document failures live in
// Result.Docs and do not fail the run.
func Run(store *xmlordb.Store, src Source, opts Options) (*Result, error) {
	if err := opts.Normalize(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(opts.Context)
	defer cancel()

	res := &Result{Workers: opts.Workers}
	start := time.Now()
	startInserts := store.DB().Stats().Inserts

	tasks := make(chan task, opts.Workers*2)
	shredded := make(chan item, opts.Workers*2)

	// Source stage: enumerate and number the corpus. Stops early on
	// cancellation; the workers still drain every task already sent, so
	// arrived sequence numbers stay contiguous.
	var srcErr error
	go func() {
		defer close(tasks)
		for seq := 0; ; seq++ {
			d, err := src.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				srcErr = fmt.Errorf("ingest: source: %w", err)
				return
			}
			if d.Name == "" {
				d.Name = d.Path
			}
			select {
			case tasks <- task{seq: seq, doc: d}:
			case <-ctx.Done():
				return
			}
		}
	}()

	// Worker stage: read + parse + validate + shred, off the engine.
	// Workers never drop a task — the commit stage relies on receiving
	// every sequence number the source handed out.
	var busy atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < opts.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tasks {
				t0 := time.Now()
				it := item{seq: t.seq, name: t.doc.Name}
				xml := t.doc.XML
				if xml == "" && t.doc.Path != "" {
					b, err := os.ReadFile(t.doc.Path)
					if err != nil {
						it.err = &DocError{Name: t.doc.Name, Seq: t.seq, Stage: StageRead, Err: err}
					} else {
						xml = string(b)
					}
				}
				if it.err == nil {
					pd, err := store.PrepareXML(xml, t.doc.Name)
					if err != nil {
						it.err = &DocError{Name: t.doc.Name, Seq: t.seq, Stage: StagePrepare, Err: err}
					} else {
						it.prep = pd
						it.bytes = len(xml)
					}
				}
				busy.Add(int64(time.Since(t0)))
				shredded <- it
			}
		}()
	}
	go func() {
		wg.Wait()
		close(shredded)
	}()

	// Commit stage (this goroutine): reorder into sequence order, batch
	// by the budgets, commit each batch as one transaction.
	hold := map[int]item{}
	next := 0
	var batch []item
	var batchBytes int64
	var runErr error
	stopping := false

	flush := func() {
		if len(batch) == 0 {
			return
		}
		docs := batch
		batch = nil
		batchBytes = 0
		out := make([]DocResult, 0, len(docs))
		var okBytes int64
		db := store.DB()
		err := db.RunInTx(func() error {
			for _, it := range docs {
				if stopping {
					break
				}
				id, lerr := store.LoadPrepared(it.prep)
				if lerr != nil {
					de := &DocError{Name: it.name, Seq: it.seq, Stage: StageLoad, Err: lerr}
					out = append(out, DocResult{Seq: it.seq, Name: it.name, Err: de})
					if !opts.KeepGoing {
						// The documents already applied commit with this
						// batch; the run stops here.
						stopping = true
						runErr = de
						cancel()
					}
					continue
				}
				out = append(out, DocResult{Seq: it.seq, Name: it.name, DocID: id})
				okBytes += int64(it.bytes)
			}
			return nil
		})
		if err != nil {
			// Batch-level failure (Begin or Commit itself): everything in
			// this batch rolled back, including documents recorded above.
			if runErr == nil {
				runErr = fmt.Errorf("ingest: committing batch: %w", err)
			}
			stopping = true
			cancel()
			for i := range out {
				if out[i].Err == nil {
					out[i].DocID = 0
					out[i].Err = &DocError{Name: out[i].Name, Seq: out[i].Seq, Stage: StageCommit, Err: err}
				}
			}
			okBytes = 0
		}
		applied := 0
		for _, r := range out {
			if r.Err == nil {
				res.Loaded++
				applied++
			} else {
				res.Failed++
			}
		}
		res.Docs = append(res.Docs, out...)
		res.Bytes += okBytes
		if err == nil && applied > 0 {
			res.Batches++
			if applied > res.MaxBatchDocs {
				res.MaxBatchDocs = applied
			}
		}
	}

	for it := range shredded {
		hold[it.seq] = it
		for {
			cur, ok := hold[next]
			if !ok {
				break
			}
			delete(hold, next)
			next++
			if stopping {
				continue // draining only
			}
			if cur.err != nil {
				if !opts.KeepGoing {
					flush() // commit everything before the bad document
					res.Failed++
					res.Docs = append(res.Docs, DocResult{Seq: cur.seq, Name: cur.name, Err: cur.err})
					runErr = cur.err
					stopping = true
					cancel()
					continue
				}
				res.Failed++
				res.Docs = append(res.Docs, DocResult{Seq: cur.seq, Name: cur.name, Err: cur.err})
				continue
			}
			batch = append(batch, cur)
			batchBytes += int64(cur.bytes)
			if len(batch) >= opts.BatchDocs || batchBytes >= opts.BatchBytes {
				flush()
			}
		}
	}
	if !stopping {
		flush() // final partial batch
	}

	if runErr == nil {
		runErr = srcErr
	}
	if runErr == nil && opts.Context.Err() != nil {
		runErr = opts.Context.Err()
	}

	sort.Slice(res.Docs, func(i, j int) bool { return res.Docs[i].Seq < res.Docs[j].Seq })
	res.Elapsed = time.Since(start)
	res.Rows = store.DB().Stats().Inserts - startInserts
	if res.Elapsed > 0 && opts.Workers > 0 {
		res.Utilization = float64(busy.Load()) / (float64(res.Elapsed) * float64(opts.Workers))
	}
	store.AddIngestStats(int64(res.Loaded), int64(res.Failed), int64(res.Batches), res.Bytes, res.Elapsed, opts.Workers)
	return res, runErr
}
