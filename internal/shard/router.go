package shard

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"xmlordb/internal/sql"
	"xmlordb/internal/wire"
)

// Config tunes a Router. Addrs is the only required field.
type Config struct {
	// Addrs lists the shard servers, index-aligned: Addrs[i] hosts
	// shard i. The order is part of the topology — it decides which
	// shard owns which documents — so it must be identical on every
	// router fronting the same shards.
	Addrs []string
	// DialTimeout bounds one backend dial (default 5s).
	DialTimeout time.Duration
	// CallTimeout bounds one backend request/response exchange
	// (default 30s).
	CallTimeout time.Duration
	// Logf receives router log lines (default: discarded).
	Logf func(format string, args ...any)
}

// sessionIdleTimeout closes client sessions that send no request for
// this long.
const sessionIdleTimeout = 5 * time.Minute

func (c Config) dialTimeout() time.Duration {
	if c.DialTimeout > 0 {
		return c.DialTimeout
	}
	return 5 * time.Second
}

func (c Config) callTimeout() time.Duration {
	if c.CallTimeout > 0 {
		return c.CallTimeout
	}
	return 30 * time.Second
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Router serves the wire protocol by fanning requests out over N shard
// servers: writes route to the owning shard (LOAD by name hash,
// DELETE/RETRIEVE by DocID arithmetic, raw INSERT by statement hash),
// reads scatter to every shard concurrently and gather into one merged
// result set, and session transactions bind to a single shard — a
// write that would cross shards inside a transaction fails with
// wire.CodeCrossShard rather than half-applying.
//
// The router holds no document state of its own: shard servers speak
// global DocIDs natively (internal/server translates at its edge), so
// the router never rewrites response payloads — it only decides where
// requests go and how fanned-out responses recombine.
type Router struct {
	cfg Config

	mu       sync.Mutex
	ln       net.Listener
	sessions map[*rsession]struct{}
	draining bool
	wg       sync.WaitGroup
}

// NewRouter returns a router over the given shard addresses.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one shard address")
	}
	return &Router{cfg: cfg, sessions: map[*rsession]struct{}{}}, nil
}

// Shards reports the topology size.
func (r *Router) Shards() int { return len(r.cfg.Addrs) }

// Map returns the wire shard map the router advertises.
func (r *Router) Map() *wire.ShardMap {
	return &wire.ShardMap{
		Count: len(r.cfg.Addrs),
		Hash:  HashName,
		Addrs: append([]string(nil), r.cfg.Addrs...),
	}
}

// ListenAndServe listens on addr and serves until Shutdown.
func (r *Router) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return r.Serve(ln)
}

// Addr returns the bound listener address (nil before Serve).
func (r *Router) Addr() net.Addr {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ln == nil {
		return nil
	}
	return r.ln.Addr()
}

// Serve accepts client sessions until Shutdown closes the listener.
func (r *Router) Serve(ln net.Listener) error {
	r.mu.Lock()
	if r.draining {
		r.mu.Unlock()
		ln.Close()
		return fmt.Errorf("shard: router already shut down")
	}
	r.ln = ln
	r.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			r.mu.Lock()
			draining := r.draining
			r.mu.Unlock()
			if draining {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		ss := &rsession{
			r:        r,
			conn:     conn,
			br:       bufio.NewReaderSize(conn, 16<<10),
			backends: make([]*backendConn, len(r.cfg.Addrs)),
			txShard:  -1,
		}
		for i, addr := range r.cfg.Addrs {
			ss.backends[i] = &backendConn{addr: addr, cfg: &r.cfg}
		}
		r.mu.Lock()
		if r.draining {
			r.mu.Unlock()
			conn.Close()
			continue
		}
		r.sessions[ss] = struct{}{}
		r.mu.Unlock()
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			ss.serve()
		}()
	}
}

// Shutdown closes the listener and every live session.
func (r *Router) Shutdown(ctx context.Context) error {
	r.mu.Lock()
	if r.draining {
		r.mu.Unlock()
		return fmt.Errorf("shard: router already shut down")
	}
	r.draining = true
	ln := r.ln
	sessions := make([]*rsession, 0, len(r.sessions))
	for ss := range r.sessions {
		sessions = append(sessions, ss)
	}
	r.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, ss := range sessions {
		ss.conn.Close()
	}
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (r *Router) dropSession(ss *rsession) {
	ss.closeBackends()
	r.mu.Lock()
	delete(r.sessions, ss)
	r.mu.Unlock()
	ss.conn.Close()
}

// backendConn is one shard's connection within one router session. A
// connection is dialed on first use and redialed after any transport
// failure; the session serializes calls on it (scatter legs run on
// different backends, never the same one concurrently).
type backendConn struct {
	addr string
	cfg  *Config
	conn net.Conn
	br   *bufio.Reader
}

func (bc *backendConn) drop() {
	if bc.conn != nil {
		bc.conn.Close()
		bc.conn = nil
		bc.br = nil
	}
}

// call performs one request/response exchange with the shard. A nil
// error with a non-OK response is a shard-side refusal; a non-nil
// error is a transport failure (the caller maps it to
// wire.CodeShardUnavailable).
func (bc *backendConn) call(req *wire.Request) (*wire.Response, error) {
	redialed := false
	for {
		if bc.conn == nil {
			conn, err := net.DialTimeout("tcp", bc.addr, bc.cfg.dialTimeout())
			if err != nil {
				return nil, err
			}
			bc.conn = conn
			bc.br = bufio.NewReaderSize(conn, 16<<10)
			redialed = true
		}
		bc.conn.SetDeadline(time.Now().Add(bc.cfg.callTimeout()))
		if err := wire.WriteFrame(bc.conn, req); err != nil {
			bc.drop()
			if !redialed {
				continue // stale pooled conn; nothing executed, retry on a fresh dial
			}
			return nil, err
		}
		line, err := wire.ReadFrame(bc.br, wire.DefaultMaxFrame)
		if err != nil {
			bc.drop()
			if !redialed && errors.Is(err, io.ErrUnexpectedEOF) {
				// The server closed a pooled conn (idle timeout) between
				// our write and its read; safe to retry reads, but a
				// write may have executed — surface the failure.
			}
			return nil, err
		}
		resp, err := wire.DecodeResponse(line)
		if err != nil {
			bc.drop()
			return nil, err
		}
		return resp, nil
	}
}

// rsession is one client connection to the router.
type rsession struct {
	r    *Router
	conn net.Conn
	br   *bufio.Reader

	store    string // USE binding, stamped onto forwarded requests
	loadSeq  int    // names anonymous LOADs deterministically
	txOpen   bool   // BEGIN seen, COMMIT/ROLLBACK pending
	txShard  int    // shard holding the backend transaction (-1 = none yet)
	backends []*backendConn
}

func (ss *rsession) closeBackends() {
	// An open backend transaction dies with its connection: the shard
	// server rolls it back on disconnect, same as a direct client.
	for _, bc := range ss.backends {
		bc.drop()
	}
}

func (ss *rsession) serve() {
	defer ss.r.dropSession(ss)
	for {
		ss.conn.SetReadDeadline(time.Now().Add(sessionIdleTimeout))
		line, err := wire.ReadFrame(ss.br, wire.DefaultMaxFrame)
		if err != nil {
			switch {
			case errors.Is(err, wire.ErrFrameTooLarge):
				ss.write(&wire.Response{OK: false, Code: wire.CodeTooLarge,
					Error: "request frame exceeds router limit"})
			case errors.Is(err, wire.ErrEmptyFrame):
				continue
			}
			return
		}
		req, err := wire.DecodeRequest(line)
		if err != nil {
			ss.write(&wire.Response{OK: false, Code: wire.CodeBadRequest, Error: err.Error()})
			return
		}
		verb := strings.ToUpper(req.Verb)
		resp := ss.dispatch(verb, req)
		if !ss.write(resp) || verb == wire.VerbQuit {
			return
		}
	}
}

func (ss *rsession) write(resp *wire.Response) bool {
	ss.conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
	return wire.WriteFrame(ss.conn, resp) == nil
}

func fail(code, format string, args ...any) *wire.Response {
	return &wire.Response{OK: false, Code: code, Error: fmt.Sprintf(format, args...)}
}

// shardFail builds the typed single-shard failure: top-level code and
// message mirror the shard's own, with attribution naming the shard.
func (ss *rsession) shardFail(i int, resp *wire.Response, err error) *wire.Response {
	se := wire.ShardError{Shard: i, Addr: ss.backends[i].addr}
	if err != nil {
		se.Code = wire.CodeShardUnavailable
		se.Error = err.Error()
	} else {
		se.Code = resp.Code
		se.Error = resp.Error
	}
	out := fail(se.Code, "shard %d (%s): %s", i, se.Addr, se.Error)
	out.ShardErrors = []wire.ShardError{se}
	return out
}

// forward stamps the session's store binding and the router's topology
// assertion onto req and sends it to shard i.
func (ss *rsession) forward(i int, req *wire.Request) *wire.Response {
	fr := *req
	if fr.Store == "" {
		fr.Store = ss.store
	}
	fr.Shards = len(ss.backends)
	fr.Shard = i + 1
	resp, err := ss.backends[i].call(&fr)
	if err != nil {
		if ss.txOpen && ss.txShard == i {
			// The backend transaction died with the connection; the
			// shard rolled it back. Reset so the session is usable.
			ss.txOpen, ss.txShard = false, -1
		}
		return ss.shardFail(i, nil, err)
	}
	if !resp.OK {
		out := *resp
		out.ShardErrors = []wire.ShardError{{Shard: i, Addr: ss.backends[i].addr, Code: resp.Code, Error: resp.Error}}
		return &out
	}
	return resp
}

// scatterResult is one shard's leg of a fanned-out request.
type scatterResult struct {
	resp *wire.Response
	err  error
}

// scatter sends req to every shard concurrently and collects the legs
// in shard order. Each leg uses its own backend connection, so the
// fan-out is genuinely parallel.
func (ss *rsession) scatter(req *wire.Request) []scatterResult {
	out := make([]scatterResult, len(ss.backends))
	var wg sync.WaitGroup
	for i := range ss.backends {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fr := *req
			if fr.Store == "" {
				fr.Store = ss.store
			}
			fr.Shards = len(ss.backends)
			fr.Shard = i + 1
			out[i].resp, out[i].err = ss.backends[i].call(&fr)
		}(i)
	}
	wg.Wait()
	return out
}

// gatherErr inspects scatter legs: nil when every shard answered OK,
// else the first (lowest-index) failure with full per-shard
// attribution — one dead shard is distinguishable from a total outage.
func (ss *rsession) gatherErr(results []scatterResult) *wire.Response {
	var errs []wire.ShardError
	for i, res := range results {
		switch {
		case res.err != nil:
			errs = append(errs, wire.ShardError{Shard: i, Addr: ss.backends[i].addr,
				Code: wire.CodeShardUnavailable, Error: res.err.Error()})
		case !res.resp.OK:
			errs = append(errs, wire.ShardError{Shard: i, Addr: ss.backends[i].addr,
				Code: res.resp.Code, Error: res.resp.Error})
		}
	}
	if len(errs) == 0 {
		return nil
	}
	first := errs[0]
	out := fail(first.Code, "shard %d (%s): %s", first.Shard, first.Addr, first.Error)
	out.ShardErrors = errs
	return out
}

// routedWrite enforces the single-shard transaction rule and forwards
// a write to its owning shard. bind reports whether an unbound open
// transaction may bind to owner (document writes and raw DML bind;
// DDL never does — it must broadcast, which a transaction cannot).
func (ss *rsession) routedWrite(owner int, req *wire.Request) *wire.Response {
	if ss.txOpen {
		if ss.txShard == -1 {
			if resp := ss.beginOn(owner); resp != nil {
				return resp
			}
		} else if ss.txShard != owner {
			return fail(wire.CodeCrossShard,
				"transaction is bound to shard %d; this write routes to shard %d — single-shard transactions only",
				ss.txShard, owner)
		}
	}
	return ss.forward(owner, req)
}

// beginOn opens the backend transaction on shard i for a lazily-bound
// session transaction. Returns nil on success.
func (ss *rsession) beginOn(i int) *wire.Response {
	resp := ss.forward(i, &wire.Request{Verb: wire.VerbBegin})
	if !resp.OK {
		return resp
	}
	ss.txShard = i
	return nil
}

func (ss *rsession) dispatch(verb string, req *wire.Request) *wire.Response {
	n := len(ss.backends)
	// A client asserting a stale topology gets told, not misrouted.
	if req.Shards != 0 && req.Shards != n {
		return fail(wire.CodeShardMismatch,
			"router runs %d shard(s); request asserts %d — refresh the shard map", n, req.Shards)
	}

	switch verb {
	case wire.VerbPing, wire.VerbQuit:
		return &wire.Response{OK: true}

	case wire.VerbShardMap:
		return &wire.Response{OK: true, ShardMap: ss.r.Map()}

	case wire.VerbStores:
		return ss.forward(0, req)

	case wire.VerbUse:
		if req.Name == "" {
			return fail(wire.CodeBadRequest, "USE requires name")
		}
		if ss.txOpen {
			return fail(wire.CodeTx, "transaction open; COMMIT or ROLLBACK first")
		}
		if resp := ss.forward(0, req); !resp.OK {
			return resp
		}
		ss.store = req.Name
		return &wire.Response{OK: true}

	case wire.VerbOpen:
		if req.Name == "" || req.DTD == "" {
			return fail(wire.CodeBadRequest, "OPEN requires name and dtd")
		}
		results := ss.scatter(req)
		if resp := ss.gatherErr(results); resp != nil {
			return resp
		}
		ss.store = req.Name
		return &wire.Response{OK: true}

	case wire.VerbLoad:
		if req.XML == "" {
			return fail(wire.CodeBadRequest, "LOAD requires xml")
		}
		fr := *req
		if fr.Name == "" {
			ss.loadSeq++
			fr.Name = fmt.Sprintf("router-%d.xml", ss.loadSeq)
		}
		return ss.routedWrite(OwnerOfName(fr.Name, n), &fr)

	case wire.VerbBulkLoad:
		return ss.bulkLoad(req)

	case wire.VerbRetrieve:
		if req.DocID <= 0 {
			return fail(wire.CodeBadRequest, "RETRIEVE requires docid")
		}
		return ss.forward(OwnerOfDocID(req.DocID, n), req)

	case wire.VerbDelete:
		if req.DocID <= 0 {
			return fail(wire.CodeBadRequest, "DELETE requires docid")
		}
		return ss.routedWrite(OwnerOfDocID(req.DocID, n), req)

	case wire.VerbXPath:
		if req.Path == "" {
			return fail(wire.CodeBadRequest, "XPATH requires path")
		}
		results := ss.scatter(req)
		if resp := ss.gatherErr(results); resp != nil {
			return resp
		}
		return mergeXPath(results)

	case wire.VerbSQL:
		return ss.dispatchSQL(req)

	case wire.VerbBegin:
		return ss.begin()
	case wire.VerbCommit:
		return ss.finishTx(wire.VerbCommit)
	case wire.VerbRollback:
		return ss.finishTx(wire.VerbRollback)

	case wire.VerbStats:
		return ss.mergedStats(req)

	case wire.VerbSave:
		results := ss.scatter(req)
		if resp := ss.gatherErr(results); resp != nil {
			return resp
		}
		return &wire.Response{OK: true}

	case wire.VerbReplicate, wire.VerbPromote, wire.VerbPosition:
		return fail(wire.CodeBadRequest,
			"%s is not served by the shard router; address a shard server directly", verb)

	default:
		return fail(wire.CodeBadRequest, "unknown verb %q", req.Verb)
	}
}

// dispatchSQL classifies the statement: SELECTs scatter-gather, DDL
// broadcasts to every shard, raw DML routes by statement hash (INSERT)
// or broadcasts with summed affected counts (UPDATE/DELETE), and
// transaction control flows through the session's single-shard
// transaction state.
func (ss *rsession) dispatchSQL(req *wire.Request) *wire.Response {
	if strings.TrimSpace(req.SQL) == "" {
		return fail(wire.CodeBadRequest, "SQL requires sql")
	}
	stmt, err := sql.CachedParse(req.SQL)
	if err != nil {
		return fail(wire.CodeEngine, "%v", err)
	}
	n := len(ss.backends)
	switch st := stmt.(type) {
	case *sql.SelectStmt:
		if rw := rewriteAvg(st); rw != nil && n > 1 {
			legReq := *req
			legReq.SQL = rw.legSQL
			results := ss.scatter(&legReq)
			if resp := ss.gatherErr(results); resp != nil {
				return resp
			}
			return rw.merge(st, results)
		}
		results := ss.scatter(req)
		if resp := ss.gatherErr(results); resp != nil {
			return resp
		}
		return mergeSelect(st, results)

	case *sql.BeginStmt:
		return ss.begin()
	case *sql.CommitStmt:
		return ss.finishTx(wire.VerbCommit)
	case *sql.RollbackStmt:
		if st.Savepoint != "" {
			if !ss.txOpen || ss.txShard == -1 {
				return fail(wire.CodeTx, "ROLLBACK TO SAVEPOINT outside a transaction")
			}
			return ss.forward(ss.txShard, req)
		}
		return ss.finishTx(wire.VerbRollback)
	case *sql.SavepointStmt:
		if !ss.txOpen || ss.txShard == -1 {
			return fail(wire.CodeTx, "SAVEPOINT outside a transaction")
		}
		return ss.forward(ss.txShard, req)

	case *sql.InsertStmt:
		// A raw INSERT has no document name; its deterministic owner is
		// the hash of the statement text, so re-running it targets the
		// same shard. Inside a transaction the bound shard owns it.
		if ss.txOpen && ss.txShard != -1 {
			return ss.forward(ss.txShard, req)
		}
		return ss.routedWrite(OwnerOfKey(req.SQL, n), req)

	case *sql.UpdateStmt, *sql.DeleteStmt:
		// Predicate DML touches rows wherever their documents live:
		// inside a transaction it stays on the bound shard, outside it
		// broadcasts and sums the affected counts.
		if ss.txOpen {
			if ss.txShard == -1 {
				if resp := ss.beginOn(OwnerOfKey(req.SQL, n)); resp != nil {
					return resp
				}
			}
			return ss.forward(ss.txShard, req)
		}
		results := ss.scatter(req)
		if resp := ss.gatherErr(results); resp != nil {
			return resp
		}
		affected := 0
		for _, res := range results {
			affected += res.resp.Affected
		}
		return &wire.Response{OK: true, Affected: affected}

	default:
		// DDL (CREATE/DROP TYPE/TABLE/VIEW/INDEX) must apply on every
		// shard to keep the schemas identical — which a single-shard
		// transaction cannot express.
		if ss.txOpen {
			return fail(wire.CodeCrossShard,
				"DDL broadcasts to every shard and cannot run inside a single-shard transaction")
		}
		results := ss.scatter(req)
		if resp := ss.gatherErr(results); resp != nil {
			return resp
		}
		aff := 0
		for _, res := range results {
			if res.resp.Affected > aff {
				aff = res.resp.Affected
			}
		}
		return &wire.Response{OK: true, Affected: aff}
	}
}

// bulkLoad partitions a BULKLOAD batch by document owner and forwards
// one sub-batch per shard concurrently — each shard runs its own ingest
// pipeline over its slice of the corpus, so the fan-out multiplies the
// pipelines as well as the parsing. Per-document results merge back
// into request order, each stamped with the shard that loaded it.
// Batches commit shard-side as the pipelines progress, so BULKLOAD
// cannot run inside a session transaction, and a failed leg does not
// undo the others: the merged Bulk payload reports exactly which
// documents landed where.
func (ss *rsession) bulkLoad(req *wire.Request) *wire.Response {
	if len(req.Docs) == 0 {
		return fail(wire.CodeBadRequest, "BULKLOAD requires docs")
	}
	if ss.txOpen {
		return fail(wire.CodeTx, "BULKLOAD commits in batches and cannot run inside a transaction")
	}
	n := len(ss.backends)
	// Name anonymous documents here, not shard-side, so routing and the
	// shard's registry agree on each document's owner.
	named := make([]wire.BulkDoc, len(req.Docs))
	for i, d := range req.Docs {
		if d.Name == "" {
			ss.loadSeq++
			d.Name = fmt.Sprintf("router-%d.xml", ss.loadSeq)
		}
		named[i] = d
	}
	parts := make([][]wire.BulkDoc, n) // per-shard sub-batches
	slots := make([][]int, n)          // original index of each sub-batch entry
	for i, d := range named {
		o := OwnerOfName(d.Name, n)
		parts[o] = append(parts[o], d)
		slots[o] = append(slots[o], i)
	}

	results := make([]scatterResult, n)
	var wg sync.WaitGroup
	for i := range ss.backends {
		if len(parts[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fr := *req
			fr.Docs = parts[i]
			if fr.Store == "" {
				fr.Store = ss.store
			}
			fr.Shards = n
			fr.Shard = i + 1
			results[i].resp, results[i].err = ss.backends[i].call(&fr)
		}(i)
	}
	wg.Wait()

	merged := &wire.BulkResult{Docs: make([]wire.BulkDocResult, len(named))}
	var errs []wire.ShardError
	for i := range ss.backends {
		if len(parts[i]) == 0 {
			continue
		}
		res := results[i]
		var legErr *wire.ShardError
		switch {
		case res.err != nil:
			legErr = &wire.ShardError{Shard: i, Addr: ss.backends[i].addr,
				Code: wire.CodeShardUnavailable, Error: res.err.Error()}
		case !res.resp.OK:
			legErr = &wire.ShardError{Shard: i, Addr: ss.backends[i].addr,
				Code: res.resp.Code, Error: res.resp.Error}
		}
		if legErr != nil {
			errs = append(errs, *legErr)
		}
		// Even a failed leg can carry per-document results — batches
		// before the failure committed — so merge whatever it reported.
		var legDocs []wire.BulkDocResult
		if res.resp != nil && res.resp.Bulk != nil {
			legDocs = res.resp.Bulk.Docs
		}
		for j, slot := range slots[i] {
			if j < len(legDocs) {
				merged.Docs[slot] = legDocs[j]
				continue
			}
			// The shard never reported this document; charge the leg error.
			dr := wire.BulkDocResult{Name: named[slot].Name, Shard: i}
			if legErr != nil {
				dr.Error = fmt.Sprintf("shard %d (%s): %s", i, ss.backends[i].addr, legErr.Error)
			} else {
				dr.Error = fmt.Sprintf("shard %d (%s): no result reported", i, ss.backends[i].addr)
			}
			merged.Docs[slot] = dr
		}
	}
	for i := range merged.Docs {
		if merged.Docs[i].Error == "" && merged.Docs[i].DocID > 0 {
			merged.Loaded++
		} else {
			merged.Failed++
		}
	}
	if len(errs) == 0 {
		return &wire.Response{OK: true, Bulk: merged}
	}
	first := errs[0]
	out := fail(first.Code, "shard %d (%s): %s", first.Shard, first.Addr, first.Error)
	out.ShardErrors = errs
	out.Bulk = merged
	return out
}

// begin opens the session transaction. The backend BEGIN is deferred
// until the first write names a shard: only then is the owner known.
func (ss *rsession) begin() *wire.Response {
	if ss.txOpen {
		return fail(wire.CodeTx, "transaction already open")
	}
	ss.txOpen = true
	ss.txShard = -1
	return &wire.Response{OK: true}
}

// finishTx commits or rolls back the session transaction on its bound
// shard. A transaction that never bound (no writes) finishes locally.
func (ss *rsession) finishTx(verb string) *wire.Response {
	if !ss.txOpen {
		return fail(wire.CodeTx, "no transaction open")
	}
	shard := ss.txShard
	ss.txOpen, ss.txShard = false, -1
	if shard == -1 {
		return &wire.Response{OK: true}
	}
	return ss.forward(shard, &wire.Request{Verb: verb})
}

// mergedStats scatters STATS and merges the legs: counters sum by
// store name, per-shard health lands in Stats.Shards, and shards that
// failed to answer are reported rather than silently dropped.
func (ss *rsession) mergedStats(req *wire.Request) *wire.Response {
	results := ss.scatter(req)
	merged := mergeStats(results, ss.r.cfg.Addrs)
	return &wire.Response{OK: true, Stats: merged}
}
