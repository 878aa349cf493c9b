// Package client is the typed Go client for xmlordbd's wire protocol
// (internal/wire): it dials the server, frames requests, decodes
// responses into Go values and maps protocol failures to errors. One
// Client multiplexes calls from many goroutines over one connection —
// calls are serialized on the wire, matching the server's one-frame-
// in-flight-per-session model — and transparently redials a broken
// connection on the next call, except inside a transaction, where
// session state would be silently lost.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"xmlordb/internal/repl"
	"xmlordb/internal/wire"
)

// ErrTxBroken reports a connection lost while a transaction was open:
// the server has rolled the transaction back, and the client will not
// silently redial into a fresh session mid-transaction.
var ErrTxBroken = errors.New("client: connection lost with open transaction (server rolled it back)")

// Option configures a Client.
type Option func(*Client)

// WithTimeout sets the default per-call timeout applied when a call's
// context carries no deadline (default 30s; <=0 disables).
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// WithMaxFrame bounds response frames the client will accept.
func WithMaxFrame(n int) Option {
	return func(c *Client) { c.maxFrame = n }
}

// WithDialer replaces the dial function (tests).
func WithDialer(dial func(ctx context.Context, addr string) (net.Conn, error)) Option {
	return func(c *Client) { c.dial = dial }
}

// Client is a connection to one xmlordbd server.
type Client struct {
	addr     string
	timeout  time.Duration
	maxFrame int
	dial     func(ctx context.Context, addr string) (net.Conn, error)

	mu   sync.Mutex // serializes request/response pairs on the wire
	conn net.Conn
	br   *bufio.Reader
	inTx bool
}

// Dial connects to an xmlordbd server at addr.
func Dial(addr string, opts ...Option) (*Client, error) {
	c := &Client{
		addr:     addr,
		timeout:  30 * time.Second,
		maxFrame: wire.DefaultMaxFrame,
		dial: func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		},
	}
	for _, o := range opts {
		o(c)
	}
	ctx, cancel := c.callContext(context.Background())
	defer cancel()
	conn, err := c.dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	c.setConn(conn)
	return c, nil
}

func (c *Client) setConn(conn net.Conn) {
	c.conn = conn
	c.br = bufio.NewReaderSize(conn, 16<<10)
}

func (c *Client) callContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); !ok && c.timeout > 0 {
		return context.WithTimeout(ctx, c.timeout)
	}
	return ctx, func() {}
}

// Close sends QUIT (best-effort) and closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	c.conn.SetWriteDeadline(time.Now().Add(time.Second))
	wire.WriteFrame(c.conn, &wire.Request{Verb: wire.VerbQuit})
	err := c.conn.Close()
	c.conn = nil
	c.br = nil
	return err
}

// do performs one request/response exchange. A dead connection is
// redialed once — before anything was written, reconnecting is always
// safe; after a write failure the request is retried on the fresh
// connection (requests are only applied when fully read, so a half-
// written frame was never executed). A failure after the request may
// have been executed is returned as-is, with the connection dropped so
// the next call redials.
func (c *Client) do(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	ctx, cancel := c.callContext(ctx)
	defer cancel()
	c.mu.Lock()
	defer c.mu.Unlock()

	for attempt := 0; ; attempt++ {
		if c.conn == nil {
			if c.inTx {
				c.inTx = false
				return nil, ErrTxBroken
			}
			conn, err := c.dial(ctx, c.addr)
			if err != nil {
				return nil, err
			}
			c.setConn(conn)
		}
		deadline, _ := ctx.Deadline()
		c.conn.SetDeadline(deadline) // zero time = no deadline
		err := wire.WriteFrame(c.conn, req)
		if err != nil {
			c.dropConnLocked()
			if attempt == 0 && !c.inTx && ctx.Err() == nil {
				continue // nothing executed; retry once on a fresh dial
			}
			if c.inTx {
				c.inTx = false
				return nil, errors.Join(ErrTxBroken, err)
			}
			return nil, err
		}
		line, err := wire.ReadFrame(c.br, c.maxFrame)
		if err != nil {
			c.dropConnLocked()
			if c.inTx {
				c.inTx = false
				return nil, errors.Join(ErrTxBroken, err)
			}
			return nil, fmt.Errorf("client: reading response: %w", err)
		}
		resp, err := wire.DecodeResponse(line)
		if err != nil {
			c.dropConnLocked()
			return nil, err
		}
		return resp, nil
	}
}

func (c *Client) dropConnLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.br = nil
	}
}

// call performs the exchange and converts protocol failures to errors.
// A CodeReadOnly rejection becomes a *repl.ReadOnlyError so callers
// (and the RW client) can redirect the write to the named primary.
func (c *Client) call(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	resp, err := c.do(ctx, req)
	if err != nil {
		return nil, err
	}
	if !resp.OK && resp.Code == wire.CodeReadOnly {
		return nil, &repl.ReadOnlyError{Primary: resp.Primary}
	}
	if err := resp.Err(); err != nil {
		return nil, err
	}
	return resp, nil
}

// Addr is the address this client dials.
func (c *Client) Addr() string {
	return c.addr
}

// Ping checks liveness.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.call(ctx, &wire.Request{Verb: wire.VerbPing})
	return err
}

// Position asks the server for its replication coordinates: role, epoch,
// total durable LSN, the primary it knows of, and the member list.
func (c *Client) Position(ctx context.Context) (*wire.Response, error) {
	return c.call(ctx, &wire.Request{Verb: wire.VerbPosition})
}

// OpenStore installs a new store from DTD text on the server and binds
// the session to it. Root may be empty when the DTD has a unique root
// candidate.
func (c *Client) OpenStore(ctx context.Context, name, dtdText, root string) error {
	_, err := c.call(ctx, &wire.Request{Verb: wire.VerbOpen, Name: name, DTD: dtdText, Root: root})
	return err
}

// Use binds the session to the named store.
func (c *Client) Use(ctx context.Context, name string) error {
	_, err := c.call(ctx, &wire.Request{Verb: wire.VerbUse, Name: name})
	return err
}

// Stores lists the server's hosted store names.
func (c *Client) Stores(ctx context.Context) ([]string, error) {
	resp, err := c.call(ctx, &wire.Request{Verb: wire.VerbStores})
	if err != nil {
		return nil, err
	}
	return resp.Stores, nil
}

// Load parses, validates and loads an XML document, returning its DocID.
func (c *Client) Load(ctx context.Context, docName, xmlText string) (int, error) {
	resp, err := c.call(ctx, &wire.Request{Verb: wire.VerbLoad, Name: docName, XML: xmlText})
	if err != nil {
		return 0, err
	}
	return resp.DocID, nil
}

// BulkOptions tunes a BulkLoad: pipeline worker count, commit-batch
// budgets and whether one bad document stops the run. Zero values take
// the server's defaults.
type BulkOptions struct {
	Workers    int
	BatchDocs  int
	BatchBytes int64
	KeepGoing  bool
}

// BulkLoad pushes a batch of documents through the server's pipelined
// ingest subsystem. The BulkResult carries per-document outcomes and
// is returned even alongside a non-nil error: batches that committed
// before a failure are real, and the result says which documents landed.
func (c *Client) BulkLoad(ctx context.Context, docs []wire.BulkDoc, opts BulkOptions) (*wire.BulkResult, error) {
	resp, err := c.do(ctx, &wire.Request{Verb: wire.VerbBulkLoad, Docs: docs,
		Workers: opts.Workers, BatchDocs: opts.BatchDocs,
		BatchBytes: opts.BatchBytes, KeepGoing: opts.KeepGoing})
	if err != nil {
		return nil, err
	}
	if !resp.OK && resp.Code == wire.CodeReadOnly {
		return nil, &repl.ReadOnlyError{Primary: resp.Primary}
	}
	return resp.Bulk, resp.Err()
}

// Result is a wire-decoded query result set.
type Result struct {
	Cols []string
	Rows [][]any
	// SQL is the translated statement for XPath queries.
	SQL string
}

// Query runs a SELECT and returns the result set.
func (c *Client) Query(ctx context.Context, sqlText string) (*Result, error) {
	resp, err := c.call(ctx, &wire.Request{Verb: wire.VerbSQL, SQL: sqlText})
	if err != nil {
		return nil, err
	}
	return &Result{Cols: resp.Cols, Rows: resp.Rows}, nil
}

// Exec runs a non-SELECT statement and returns the affected row count.
func (c *Client) Exec(ctx context.Context, sqlText string) (int, error) {
	resp, err := c.call(ctx, &wire.Request{Verb: wire.VerbSQL, SQL: sqlText})
	if err != nil {
		return 0, err
	}
	return resp.Affected, nil
}

// XPath translates and runs an absolute XPath, returning the rows and
// the SQL it translated to.
func (c *Client) XPath(ctx context.Context, path string) (*Result, error) {
	resp, err := c.call(ctx, &wire.Request{Verb: wire.VerbXPath, Path: path})
	if err != nil {
		return nil, err
	}
	return &Result{Cols: resp.Cols, Rows: resp.Rows, SQL: resp.SQL}, nil
}

// Retrieve reconstructs a stored document as XML text.
func (c *Client) Retrieve(ctx context.Context, docID int) (string, error) {
	resp, err := c.call(ctx, &wire.Request{Verb: wire.VerbRetrieve, DocID: docID})
	if err != nil {
		return "", err
	}
	return resp.XML, nil
}

// Delete removes a stored document.
func (c *Client) Delete(ctx context.Context, docID int) error {
	_, err := c.call(ctx, &wire.Request{Verb: wire.VerbDelete, DocID: docID})
	return err
}

// Begin opens a transaction bound to this client's session. Until
// Commit/Rollback the server holds the store's write lock for this
// session, so other clients' writes wait and reads see only committed
// state.
func (c *Client) Begin(ctx context.Context) error {
	_, err := c.call(ctx, &wire.Request{Verb: wire.VerbBegin})
	if err == nil {
		c.mu.Lock()
		c.inTx = true
		c.mu.Unlock()
	}
	return err
}

// Commit commits the session transaction.
func (c *Client) Commit(ctx context.Context) error {
	_, err := c.call(ctx, &wire.Request{Verb: wire.VerbCommit})
	c.mu.Lock()
	c.inTx = false
	c.mu.Unlock()
	return err
}

// Rollback rolls the session transaction back.
func (c *Client) Rollback(ctx context.Context) error {
	_, err := c.call(ctx, &wire.Request{Verb: wire.VerbRollback})
	c.mu.Lock()
	c.inTx = false
	c.mu.Unlock()
	return err
}

// Stats fetches server statistics.
func (c *Client) Stats(ctx context.Context) (*wire.Stats, error) {
	resp, err := c.call(ctx, &wire.Request{Verb: wire.VerbStats})
	if err != nil {
		return nil, err
	}
	return resp.Stats, nil
}

// Save forces a snapshot of the session's store on the server.
func (c *Client) Save(ctx context.Context) error {
	_, err := c.call(ctx, &wire.Request{Verb: wire.VerbSave})
	return err
}

// Promote detaches a replica server into a standalone writable primary
// and returns its new role and the WAL position it continues from.
func (c *Client) Promote(ctx context.Context) (role string, lsn uint64, err error) {
	resp, err := c.call(ctx, &wire.Request{Verb: wire.VerbPromote})
	if err != nil {
		return "", 0, err
	}
	return resp.Role, resp.LSN, nil
}
