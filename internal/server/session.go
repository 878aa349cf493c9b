package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"xmlordb"
	"xmlordb/internal/ingest"
	"xmlordb/internal/ordb"
	"xmlordb/internal/sql"
	"xmlordb/internal/wire"
)

// session is one client connection's state: the store it is bound to
// (USE), the store whose write lock it holds while a transaction is
// open, and the drain/busy handshake with Shutdown.
type session struct {
	id   int64
	srv  *Server
	conn net.Conn
	br   *bufio.Reader

	// cur is the store bound with USE (nil = server default).
	cur *hostedStore
	// tx is the store whose write lock this session holds between BEGIN
	// and COMMIT/ROLLBACK. Only the session's own goroutine touches it.
	tx *hostedStore
	// takeover, when set by a dispatch (REPLICATE), runs after the
	// response is written and owns the connection until it returns; the
	// session loop never reads another request frame. Drain unblocks it
	// by closing the socket, same as an idle session.
	takeover func()

	// busy/draining implement graceful shutdown: a session is busy from
	// the moment a request is fully read until its response is written.
	// Draining an idle session closes the connection immediately;
	// draining a busy one lets the in-flight request complete and its
	// response go out first. Accessed from the session goroutine and
	// from Shutdown, hence atomics.
	busy     atomic.Bool
	draining atomic.Bool
	closed   atomic.Bool
}

func newSession(s *Server, conn net.Conn, id int64) *session {
	return &session{
		id:   id,
		srv:  s,
		conn: conn,
		br:   bufio.NewReaderSize(conn, 16<<10),
	}
}

// beginDrain asks the session to finish up. Idle sessions (including
// sessions parked inside an open transaction) close immediately, which
// rolls the transaction back and releases the store lock; busy sessions
// close themselves right after writing the in-flight response.
func (ss *session) beginDrain() {
	ss.draining.Store(true)
	if !ss.busy.Load() {
		ss.forceClose()
	}
}

// forceClose unblocks any pending read/write by closing the socket.
func (ss *session) forceClose() {
	if ss.closed.CompareAndSwap(false, true) {
		ss.conn.Close()
	}
}

// releaseTx rolls back (or commits nothing of) an open session
// transaction and releases the store write lock.
func (ss *session) releaseTx(rollback bool) {
	hs := ss.tx
	if hs == nil {
		return
	}
	ss.tx = nil
	if rollback {
		if tx := hs.store.Engine.DB().CurrentTx(); tx != nil {
			if err := tx.Rollback(); err != nil {
				ss.srv.cfg.logf("session %d: rollback on close: %v", ss.id, err)
			}
		}
	}
	hs.mu.Unlock()
}

// serve runs the session loop: read a frame, dispatch, write the
// response, until the client quits, errs out, idles out or the server
// drains.
func (ss *session) serve() {
	defer ss.srv.dropSession(ss)
	idle := ss.srv.cfg.idleTimeout()
	for {
		if idle > 0 {
			ss.conn.SetReadDeadline(time.Now().Add(idle))
		}
		line, err := wire.ReadFrame(ss.br, ss.srv.cfg.maxRequest())
		if err != nil {
			switch {
			case errors.Is(err, wire.ErrFrameTooLarge):
				ss.srv.metrics.oversized.Add(1)
				ss.writeResponse(&wire.Response{OK: false, Code: wire.CodeTooLarge,
					Error: "request frame exceeds server limit"})
			case errors.Is(err, wire.ErrEmptyFrame):
				continue // tolerate blank keep-alive lines
			case errors.Is(err, io.EOF):
				// clean disconnect
			default:
				// mid-frame disconnect, idle timeout, or drain close:
				// nothing to answer — the deferred dropSession rolls back
				// any open transaction and releases the store lock.
			}
			return
		}

		ss.busy.Store(true)
		resp, quit := ss.handle(line)
		ok := ss.writeResponse(resp)
		ss.busy.Store(false)
		if f := ss.takeover; f != nil {
			ss.takeover = nil
			if ok && !ss.draining.Load() {
				// Streams outlive both the idle timeout and writeResponse's
				// 30s write deadline — a leftover write deadline would kill
				// every replication feed mid-heartbeat half a minute in.
				ss.conn.SetReadDeadline(time.Time{})
				ss.conn.SetWriteDeadline(time.Time{})
				f()
			}
			return
		}
		if quit || !ok || ss.draining.Load() {
			return
		}
	}
}

// handle decodes and dispatches one request, enforcing the per-request
// execution timeout. The bool result reports a QUIT.
func (ss *session) handle(line []byte) (*wire.Response, bool) {
	req, err := wire.DecodeRequest(line)
	if err != nil {
		ss.srv.metrics.observe(malformedVerb, 0, false)
		return &wire.Response{OK: false, Code: wire.CodeBadRequest, Error: err.Error()}, true
	}
	verb := strings.ToUpper(req.Verb)
	if !knownVerbs[verb] {
		// The verb is client-chosen text: every unknown spelling shares
		// one STATS row, so a client cannot grow STATS without bound.
		ss.srv.metrics.observe(unknownVerb, 0, false)
		return fail(wire.CodeBadRequest, "unknown verb %q", req.Verb), false
	}

	var watchdog *time.Timer
	var timedOut atomic.Bool
	if d := ss.srv.cfg.RequestTimeout; d > 0 {
		watchdog = time.AfterFunc(d, func() {
			timedOut.Store(true)
			ss.srv.metrics.timeouts.Add(1)
			ss.forceClose() // the operation finishes and releases its locks
		})
	}
	start := time.Now()
	resp := ss.dispatch(verb, req)
	if watchdog != nil {
		watchdog.Stop()
	}
	ss.srv.metrics.observe(verb, time.Since(start), resp.OK)
	if timedOut.Load() {
		return resp, true // socket already closed; loop exits on write
	}
	return resp, verb == wire.VerbQuit
}

// writeResponse writes one response frame; false means the connection is
// no longer usable.
func (ss *session) writeResponse(resp *wire.Response) bool {
	ss.conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
	if err := wire.WriteFrame(ss.conn, resp); err != nil {
		return false
	}
	return true
}

func fail(code, format string, args ...any) *wire.Response {
	return &wire.Response{OK: false, Code: code, Error: fmt.Sprintf(format, args...)}
}

// target resolves the store a request addresses: the explicit
// req.Store, else the session's USE binding, else the server's sole
// hosted store.
func (ss *session) target(req *wire.Request) (*hostedStore, *wire.Response) {
	if req.Store != "" {
		hs := ss.srv.lookupStore(req.Store)
		if hs == nil {
			return nil, fail(wire.CodeNoStore, "unknown store %q", req.Store)
		}
		return hs, nil
	}
	if ss.cur != nil {
		return ss.cur, nil
	}
	if hs := ss.srv.defaultStore(); hs != nil {
		return hs, nil
	}
	return nil, fail(wire.CodeNoStore, "no store bound; OPEN or USE one (hosted: %v)", ss.srv.StoreNames())
}

// withRead runs fn against a read view of hs: a Store facade over the
// most recently published MVCC version, which fn queries without taking
// the store lock or any engine lock — reads run in parallel with each
// other AND with writers, and never queue behind another session's open
// transaction. The view is immutable, so fn can never observe a
// half-loaded or half-deleted document. The transaction owner is the
// one exception: it runs against the live store directly, because it
// must see its own uncommitted writes, which no published version
// contains.
func (ss *session) withRead(hs *hostedStore, fn func(st *xmlordb.Store) *wire.Response) *wire.Response {
	if ss.tx == hs {
		return fn(hs.store)
	}
	return fn(hs.current().ReadView())
}

// withWrite runs fn under hs's write lock (or directly inside this
// session's own transaction). A successful write marks the store dirty
// for the snapshot loop, is stamped with the store's WAL position (the
// token a read-your-writes client echoes back as WaitLSN), and — when
// semi-sync is on and the WAL actually advanced — waits for replica
// acks. Inside an open transaction the WAL does not move until COMMIT,
// so the stamp is the conservative pre-transaction position and the
// COMMIT response carries the real one.
func (ss *session) withWrite(hs *hostedStore, fn func() *wire.Response) *wire.Response {
	var resp *wire.Response
	var before, after uint64
	run := func() {
		if log := hs.store.WAL(); log != nil {
			before = log.LastLSN()
		}
		resp = fn()
		if resp.OK {
			if log := hs.store.WAL(); log != nil {
				after = log.LastLSN()
				resp.LSN = after
			}
		}
	}
	if ss.tx == hs {
		run()
	} else {
		if ss.tx != nil {
			return fail(wire.CodeTx, "transaction open on store %q; COMMIT or ROLLBACK first", ss.tx.name)
		}
		hs.mu.Lock()
		run()
		hs.mu.Unlock()
	}
	if resp.OK {
		hs.markDirty()
		if after > before {
			return ss.awaitSync(hs, resp)
		}
	}
	return resp
}

// awaitSync holds a successful write response until ReplSyncAcks
// replicas have durably acked its LSN. Called after the store lock is
// released so replication (and other sessions) proceed while we wait.
// A timeout fails the response even though the write is locally durable
// and will replicate — at-least-once, never silent loss.
func (ss *session) awaitSync(hs *hostedStore, resp *wire.Response) *wire.Response {
	s := ss.srv
	need := s.cfg.ReplSyncAcks
	if need <= 0 || resp.LSN == 0 || s.isReadOnly() {
		return resp
	}
	if err := s.waitReplicated(hs.name, resp.LSN, need); err != nil {
		return &wire.Response{OK: false, Code: wire.CodeRepl, Error: err.Error(), LSN: resp.LSN}
	}
	return resp
}

// waitApplied gates a replica read that carries WaitLSN: block (bounded
// by ReadWait) until the store has PUBLISHED a version covering the
// client's last write, else CodeLagging so a read-your-writes client
// falls back to another replica or the primary. Reads run lock-free
// against published MVCC versions, so reaching the local log is not
// enough — the gate is the published version's LSN, which the applier
// advances only after a shipped unit has been applied in full. On a
// primary reads are trivially current — it is the fallback target
// itself.
func (ss *session) waitApplied(hs *hostedStore, want uint64) *wire.Response {
	if want == 0 || !ss.srv.isReadOnly() {
		return nil
	}
	st := hs.current()
	if st.VersionLSN() >= want {
		return nil
	}
	log := st.WAL()
	if log == nil {
		return fail(wire.CodeLagging, "store %q has no wal; cannot honor wait_lsn", hs.name)
	}
	budget := ss.srv.cfg.readWait()
	deadline := time.Now().Add(budget)
	stop := make(chan struct{})
	t := time.AfterFunc(budget, func() { close(stop) })
	defer t.Stop()
	// First wait for the records to reach the local log (the log has a
	// real subscription primitive)...
	if last, ok := log.WaitFor(want, stop); !ok {
		return fail(wire.CodeLagging, "store %q applied through lsn %d; still awaiting %d after %v",
			hs.name, last, want, budget)
	}
	// ...then for the applier to finish re-executing the unit and
	// publish. That window is the apply itself, so a short poll suffices.
	for hs.current().VersionLSN() < want {
		if time.Now().After(deadline) {
			return fail(wire.CodeLagging, "store %q logged lsn %d but has published through %d; still awaiting %d after %v",
				hs.name, log.LastLSN(), hs.current().VersionLSN(), want, budget)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// knownVerbs is every verb dispatch serves; handle answers any other
// verb bad_request before dispatch.
var knownVerbs = map[string]bool{
	wire.VerbPing: true, wire.VerbQuit: true, wire.VerbStores: true,
	wire.VerbStats: true, wire.VerbPosition: true, wire.VerbReplicate: true,
	wire.VerbPromote: true, wire.VerbOpen: true, wire.VerbUse: true,
	wire.VerbLoad: true, wire.VerbBulkLoad: true, wire.VerbRetrieve: true,
	wire.VerbDelete: true, wire.VerbXPath: true, wire.VerbSQL: true,
	wire.VerbBegin: true, wire.VerbCommit: true, wire.VerbRollback: true,
	wire.VerbSave: true,
}

// dispatch executes one decoded request.
func (ss *session) dispatch(verb string, req *wire.Request) *wire.Response {
	switch verb {
	case wire.VerbPing:
		return &wire.Response{OK: true}
	case wire.VerbQuit:
		return &wire.Response{OK: true}
	case wire.VerbStores:
		return &wire.Response{OK: true, Stores: ss.srv.StoreNames()}
	case wire.VerbStats:
		return &wire.Response{OK: true, Stats: ss.srv.statsPayload()}
	case wire.VerbPosition:
		ss.srv.observeProber(req.Addr)
		return ss.srv.positionResp()

	case wire.VerbReplicate:
		return ss.replicate(req)

	case wire.VerbPromote:
		lsn, err := ss.srv.Promote()
		if err != nil {
			if ss.srv.Role() == RolePrimary {
				// Partial promotion: the role flipped but some store's
				// checkpoint (or epoch persist) failed and will be retried
				// by the snapshot loop. OK with the error text attached —
				// the node is writable, the operator should still look.
				return &wire.Response{OK: true, Role: RolePrimary, LSN: lsn, Error: err.Error()}
			}
			return fail(wire.CodeRepl, "%v", err)
		}
		return &wire.Response{OK: true, Role: ss.srv.Role(), LSN: lsn}

	case wire.VerbOpen:
		if ss.srv.isReadOnly() {
			return ss.srv.readOnlyResp()
		}
		if req.Name == "" || req.DTD == "" {
			return fail(wire.CodeBadRequest, "OPEN requires name and dtd")
		}
		if err := ss.srv.OpenStore(req.Name, req.DTD, req.Root, xmlordb.Config{}); err != nil {
			return fail(wire.CodeEngine, "%v", err)
		}
		ss.cur = ss.srv.lookupStore(req.Name)
		return &wire.Response{OK: true}

	case wire.VerbUse:
		if req.Name == "" {
			return fail(wire.CodeBadRequest, "USE requires name")
		}
		hs := ss.srv.lookupStore(req.Name)
		if hs == nil {
			return fail(wire.CodeNoStore, "unknown store %q", req.Name)
		}
		if ss.tx != nil && ss.tx != hs {
			return fail(wire.CodeTx, "transaction open on store %q; COMMIT or ROLLBACK first", ss.tx.name)
		}
		ss.cur = hs
		return &wire.Response{OK: true}
	}

	// A replica rejects every write with a typed error naming the
	// primary — before store resolution, so the rejection is the same
	// whether or not the store has synced yet. Reads (RETRIEVE, XPATH,
	// SELECT, STATS) serve normally.
	switch verb {
	case wire.VerbLoad, wire.VerbBulkLoad, wire.VerbDelete, wire.VerbBegin, wire.VerbCommit, wire.VerbRollback:
		if ss.srv.isReadOnly() {
			return ss.srv.readOnlyResp()
		}
	case wire.VerbSQL:
		if ss.srv.isReadOnly() && req.SQL != "" {
			if stmt, err := sql.CachedParse(req.SQL); err == nil {
				if _, sel := stmt.(*sql.SelectStmt); !sel {
					return ss.srv.readOnlyResp()
				}
			}
		}
	}

	// Every remaining verb addresses a store.
	hs, errResp := ss.target(req)
	if errResp != nil {
		return errResp
	}

	switch verb {
	case wire.VerbLoad:
		if req.XML == "" {
			return fail(wire.CodeBadRequest, "LOAD requires xml")
		}
		name := req.Name
		if name == "" {
			name = fmt.Sprintf("session-%d.xml", ss.id)
		}
		return ss.load(hs, req.XML, name)

	case wire.VerbBulkLoad:
		return ss.bulkLoad(hs, req)

	case wire.VerbRetrieve:
		if req.DocID <= 0 {
			return fail(wire.CodeBadRequest, "RETRIEVE requires docid")
		}
		if lag := ss.waitApplied(hs, req.WaitLSN); lag != nil {
			return lag
		}
		return ss.withRead(hs, func(st *xmlordb.Store) *wire.Response {
			xml, err := st.RetrieveXML(req.DocID)
			if err != nil {
				return fail(wire.CodeEngine, "%v", err)
			}
			return &wire.Response{OK: true, XML: xml, DocID: req.DocID}
		})

	case wire.VerbDelete:
		if req.DocID <= 0 {
			return fail(wire.CodeBadRequest, "DELETE requires docid")
		}
		return ss.withWrite(hs, func() *wire.Response {
			if err := hs.store.DeleteDocument(req.DocID); err != nil {
				return fail(wire.CodeEngine, "%v", err)
			}
			return &wire.Response{OK: true, DocID: req.DocID, Affected: 1}
		})

	case wire.VerbXPath:
		if req.Path == "" {
			return fail(wire.CodeBadRequest, "XPATH requires path")
		}
		if lag := ss.waitApplied(hs, req.WaitLSN); lag != nil {
			return lag
		}
		return ss.withRead(hs, func(st *xmlordb.Store) *wire.Response {
			rows, stmt, err := st.XPath(req.Path)
			if err != nil {
				return fail(wire.CodeEngine, "%v", err)
			}
			cols, data := rowsPayload(rows)
			return &wire.Response{OK: true, Cols: cols, Rows: data, SQL: stmt}
		})

	case wire.VerbSQL:
		return ss.dispatchSQL(hs, req)

	case wire.VerbBegin:
		return ss.begin(hs)
	case wire.VerbCommit:
		return ss.commit(hs)
	case wire.VerbRollback:
		return ss.rollback(hs)

	case wire.VerbSave:
		return ss.withWrite(hs, func() *wire.Response {
			if err := ss.srv.saveStore(hs, true); err != nil {
				return fail(wire.CodeEngine, "%v", err)
			}
			hs.clearDirty()
			return &wire.Response{OK: true}
		})

	default:
		return fail(wire.CodeBadRequest, "unknown verb %q", req.Verb)
	}
}

// load is LoadXML with its halves on either side of the writer lock:
// parse, validation and shred (PrepareXML reads only the immutable
// schema) run before withWrite, so they overlap another session's apply
// and fsync, and a malformed or invalid document is refused without ever
// queueing behind a writer or an open transaction. Only LoadPrepared —
// DocID, rows, redo record, fsync — excludes other writers.
func (ss *session) load(hs *hostedStore, xml, name string) *wire.Response {
	st := hs.current()
	p, err := st.PrepareXML(xml, name)
	if err != nil {
		return fail(wire.CodeEngine, "%v", err)
	}
	return ss.withWrite(hs, func() *wire.Response {
		if hs.store != st {
			// A snapshot re-seed swapped the store between the halves;
			// prepare against the schema that will take the document.
			if p, err = hs.store.PrepareXML(xml, name); err != nil {
				return fail(wire.CodeEngine, "%v", err)
			}
		}
		id, err := hs.store.LoadPrepared(p)
		if err != nil {
			return fail(wire.CodeEngine, "%v", err)
		}
		return &wire.Response{OK: true, DocID: id}
	})
}

// bulkLoad runs the pipelined ingest subsystem over the request's
// documents. Batches commit as the pipeline progresses, so BULKLOAD
// refuses to run inside an open session transaction — the session's
// ROLLBACK could not undo its commits. A failed run still returns the
// Bulk payload: batches before the failure committed, and the caller
// needs to know which documents made it.
func (ss *session) bulkLoad(hs *hostedStore, req *wire.Request) *wire.Response {
	if len(req.Docs) == 0 {
		return fail(wire.CodeBadRequest, "BULKLOAD requires docs")
	}
	if ss.tx != nil {
		return fail(wire.CodeTx, "BULKLOAD commits in batches and cannot run inside a transaction")
	}
	docs := make([]ingest.Doc, len(req.Docs))
	for i, d := range req.Docs {
		if d.XML == "" {
			return fail(wire.CodeBadRequest, "BULKLOAD doc %d has no xml", i)
		}
		name := d.Name
		if name == "" {
			name = fmt.Sprintf("session-%d-bulk-%d.xml", ss.id, i+1)
		}
		docs[i] = ingest.Doc{Name: name, XML: d.XML}
	}
	opts := ingest.Options{
		Workers:    req.Workers,
		BatchDocs:  req.BatchDocs,
		BatchBytes: req.BatchBytes,
		KeepGoing:  req.KeepGoing,
	}
	if opts.Workers == 0 {
		opts.Workers = ss.srv.cfg.IngestWorkers
	}
	if err := opts.Normalize(); err != nil {
		return fail(wire.CodeBadRequest, "%v", err)
	}
	return ss.withWrite(hs, func() *wire.Response {
		res, err := ingest.Run(hs.store, ingest.Docs(docs), opts)
		var bulk *wire.BulkResult
		if res != nil {
			bulk = &wire.BulkResult{Loaded: res.Loaded, Failed: res.Failed}
			for _, dr := range res.Docs {
				out := wire.BulkDocResult{Name: dr.Name, DocID: dr.DocID}
				if dr.Err != nil {
					out.Error = dr.Err.Error()
				}
				bulk.Docs = append(bulk.Docs, out)
			}
			if res.Loaded > 0 {
				// Batches committed even when the run then failed; make
				// sure the snapshot loop sees them.
				hs.markDirty()
			}
		}
		if err != nil {
			return &wire.Response{OK: false, Code: wire.CodeEngine, Error: err.Error(), Bulk: bulk}
		}
		return &wire.Response{OK: true, Bulk: bulk}
	})
}

// dispatchSQL classifies the statement first: SELECTs run under the read
// lock, transaction-control statements route through the session's
// BEGIN/COMMIT handling so the lock discipline cannot be bypassed via
// the SQL verb, and everything else is a write.
func (ss *session) dispatchSQL(hs *hostedStore, req *wire.Request) *wire.Response {
	if strings.TrimSpace(req.SQL) == "" {
		return fail(wire.CodeBadRequest, "SQL requires sql")
	}
	stmt, err := sql.CachedParse(req.SQL)
	if err != nil {
		return fail(wire.CodeEngine, "%v", err)
	}
	switch st := stmt.(type) {
	case *sql.SelectStmt, *sql.ExplainStmt:
		if lag := ss.waitApplied(hs, req.WaitLSN); lag != nil {
			return lag
		}
		return ss.withRead(hs, func(st *xmlordb.Store) *wire.Response {
			rows, err := st.Query(req.SQL)
			if err != nil {
				return fail(wire.CodeEngine, "%v", err)
			}
			cols, data := rowsPayload(rows)
			return &wire.Response{OK: true, Cols: cols, Rows: data}
		})
	case *sql.BeginStmt:
		return ss.begin(hs)
	case *sql.CommitStmt:
		return ss.commit(hs)
	case *sql.RollbackStmt:
		if st.Savepoint != "" {
			if ss.tx != hs {
				return fail(wire.CodeTx, "ROLLBACK TO SAVEPOINT outside a transaction")
			}
			if _, err := hs.store.Exec(req.SQL); err != nil {
				return fail(wire.CodeEngine, "%v", err)
			}
			return &wire.Response{OK: true}
		}
		return ss.rollback(hs)
	case *sql.SavepointStmt:
		if ss.tx != hs {
			return fail(wire.CodeTx, "SAVEPOINT outside a transaction")
		}
		if _, err := hs.store.Exec(req.SQL); err != nil {
			return fail(wire.CodeEngine, "%v", err)
		}
		return &wire.Response{OK: true}
	default:
		return ss.withWrite(hs, func() *wire.Response {
			res, err := hs.store.Exec(req.SQL)
			if err != nil {
				return fail(wire.CodeEngine, "%v", err)
			}
			return &wire.Response{OK: true, Affected: res.RowsAffected}
		})
	}
}

// begin opens a session transaction: it takes the store's write lock and
// holds it until commit/rollback (or session death), which is what makes
// the engine's single-transaction model safe per client.
func (ss *session) begin(hs *hostedStore) *wire.Response {
	if ss.tx == hs {
		return fail(wire.CodeTx, "transaction already open")
	}
	if ss.tx != nil {
		return fail(wire.CodeTx, "transaction open on store %q", ss.tx.name)
	}
	hs.mu.Lock()
	if _, err := hs.store.Engine.DB().Begin(); err != nil {
		hs.mu.Unlock()
		return fail(wire.CodeTx, "%v", err)
	}
	ss.tx = hs
	return &wire.Response{OK: true}
}

// commit commits the session transaction and releases the write lock. A
// DDL statement inside the transaction auto-commits it (Oracle
// semantics), so a missing engine transaction is a no-op success.
func (ss *session) commit(hs *hostedStore) *wire.Response {
	if ss.tx == nil {
		return fail(wire.CodeTx, "no transaction open")
	}
	if ss.tx != hs {
		return fail(wire.CodeTx, "transaction open on store %q", ss.tx.name)
	}
	if tx := hs.store.Engine.DB().CurrentTx(); tx != nil {
		if err := tx.Commit(); err != nil {
			ss.releaseTx(true)
			return fail(wire.CodeTx, "%v", err)
		}
	}
	ss.tx = nil
	var lsn uint64
	if log := hs.store.WAL(); log != nil {
		lsn = log.LastLSN()
	}
	hs.mu.Unlock()
	hs.markDirty()
	return ss.awaitSync(hs, &wire.Response{OK: true, LSN: lsn})
}

// rollback rolls the session transaction back and releases the write lock.
func (ss *session) rollback(hs *hostedStore) *wire.Response {
	if ss.tx == nil {
		return fail(wire.CodeTx, "no transaction open")
	}
	if ss.tx != hs {
		return fail(wire.CodeTx, "transaction open on store %q", ss.tx.name)
	}
	ss.releaseTx(true)
	return &wire.Response{OK: true}
}

// rowsPayload converts an engine result set to wire values: NULL →
// JSON null, character data → string, numbers → float64; objects,
// collections, REFs and dates are rendered in the engine's literal
// syntax.
func rowsPayload(rows *sql.Rows) ([]string, [][]any) {
	data := make([][]any, len(rows.Data))
	for i, row := range rows.Data {
		out := make([]any, len(row))
		for j, v := range row {
			out[j] = wireValue(v)
		}
		data[i] = out
	}
	return rows.Cols, data
}

func wireValue(v ordb.Value) any {
	switch x := v.(type) {
	case ordb.Null:
		return nil
	case ordb.Str:
		return string(x)
	case ordb.Num:
		return float64(x)
	default:
		return ordb.FormatValue(v)
	}
}
