// Package wire defines the xmlordbd line protocol: newline-delimited JSON
// frames exchanged over a TCP connection. Each request is a single JSON
// object on one line; each response is a single JSON object on one line.
// The framing is deliberately trivial — any language with a JSON codec and
// a socket can speak it — while the verb set covers the full xmlordb
// library surface: schema installation from a DTD, document loading, SQL
// and XPath queries, document retrieval and deletion, session-scoped
// transactions, snapshots and server statistics.
package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Protocol verbs. Verbs are case-insensitive on the wire; the canonical
// spelling is upper-case.
const (
	VerbPing     = "PING"     // liveness check; echoes ok
	VerbOpen     = "OPEN"     // install a named store from a DTD (Name, DTD, Root)
	VerbUse      = "USE"      // bind the session to a named store (Name)
	VerbStores   = "STORES"   // list hosted store names
	VerbLoad     = "LOAD"     // load an XML document (Name, XML) -> DocID
	VerbSQL      = "SQL"      // run SQL (SQL); SELECT -> Cols/Rows, else Affected
	VerbXPath    = "XPATH"    // translate+run an XPath (Path) -> Cols/Rows, SQL
	VerbRetrieve = "RETRIEVE" // reconstruct a document (DocID) -> XML
	VerbDelete   = "DELETE"   // delete a document (DocID)
	VerbBegin    = "BEGIN"    // open a session transaction (takes the store write lock)
	VerbCommit   = "COMMIT"   // commit the session transaction
	VerbRollback = "ROLLBACK" // roll back the session transaction
	VerbStats    = "STATS"    // server / store / cache statistics
	VerbSave     = "SAVE"     // force a snapshot of the session's store
	VerbQuit     = "QUIT"     // close the session

	// VerbBulkLoad loads a batch of documents through the server's
	// pipelined ingest subsystem (Docs; optional Workers, BatchDocs,
	// BatchBytes, KeepGoing). The response's Bulk payload reports a
	// per-document outcome — DocID or error — so one bad document does
	// not obscure the rest. Batches commit as the pipeline progresses;
	// BULKLOAD therefore cannot run inside a session transaction.
	VerbBulkLoad = "BULKLOAD"

	// VerbReplicate switches the connection into a replication stream:
	// the request carries the replica's store name and last-applied LSN,
	// and after an OK response the server sends ReplFrame frames
	// (snapshot chunks, commit units, heartbeats) while the replica
	// sends ReplAck frames. The connection never returns to
	// request/response mode.
	VerbReplicate = "REPLICATE"
	// VerbPromote detaches a replica server into a standalone writable
	// primary: replication streams stop, WAL tails are fsynced, every
	// store checkpoints, and the role flips to primary.
	VerbPromote = "PROMOTE"
	// VerbPosition reports the server's replication coordinates without
	// touching any store: role, highest store epoch, total durable LSN,
	// the writable primary it knows of, and the cluster member list. It
	// is the probe used by elections, the demotion guard and the RW
	// client's primary rediscovery, so it must stay cheap and lock-light.
	VerbPosition = "POSITION"
)

// Error codes carried in Response.Code so typed clients can branch
// without parsing message text.
const (
	CodeBadRequest = "bad_request" // malformed frame or missing field
	CodeNoStore    = "no_store"    // no store bound / unknown store name
	CodeTx         = "tx"          // transaction state error
	CodeEngine     = "engine"      // store/engine rejected the operation
	CodeShutdown   = "shutdown"    // server is draining
	CodeTooLarge   = "too_large"   // frame exceeded the server limit
	CodeReadOnly   = "read_only"   // write rejected by a replica; Primary names the writable node
	CodeRepl       = "repl"        // replication protocol error
	// CodeLagging rejects a read whose WaitLSN the store did not reach
	// within the server's read-wait budget: the replica is too far
	// behind for read-your-writes, and the client should try another
	// replica or fall back to the primary.
	CodeLagging = "lagging"
)

// Request is one client frame.
type Request struct {
	Verb string `json:"verb"`
	// Store targets a hosted store by name for this one request,
	// overriding the session binding set with USE.
	Store string `json:"store,omitempty"`
	// Name is the store name for OPEN/USE and the document name for LOAD.
	Name string `json:"name,omitempty"`
	// DTD and Root configure OPEN (Root empty = unique root candidate).
	DTD  string `json:"dtd,omitempty"`
	Root string `json:"root,omitempty"`
	// XML is the document text for LOAD.
	XML string `json:"xml,omitempty"`
	// SQL is the statement for the SQL verb.
	SQL string `json:"sql,omitempty"`
	// Path is the absolute XPath for the XPATH verb.
	Path string `json:"path,omitempty"`
	// DocID selects the document for RETRIEVE and DELETE.
	DocID int `json:"docid,omitempty"`
	// LSN is the replica's last-applied LSN for REPLICATE (0 = empty
	// replica, always bootstrapped by snapshot transfer).
	LSN uint64 `json:"lsn,omitempty"`
	// Epoch is the timeline the replica's state belongs to (REPLICATE).
	// Each promotion bumps the primary's epoch; a mismatch means the
	// replica's history may have diverged from the primary's (e.g. a
	// crashed primary re-seeding from its successor), so the primary
	// forces a snapshot transfer unless the feeder's epoch history
	// proves the replica stopped before the fork. 0 = no local state,
	// always snapshot-seeded.
	Epoch uint64 `json:"epoch,omitempty"`
	// Addr is the replica's advertised client address (REPLICATE): the
	// address peers should dial for POSITION probes and election
	// queries. Empty = the replica is anonymous and election-invisible.
	Addr string `json:"addr,omitempty"`
	// WaitLSN gates a read verb (RETRIEVE/XPATH/SQL SELECT) behind the
	// store's WAL reaching at least this position: the read-your-writes
	// barrier. The server waits up to its read-wait budget, then fails
	// with CodeLagging. 0 = read immediately.
	WaitLSN uint64 `json:"wait_lsn,omitempty"`
	// Docs is the document batch for BULKLOAD.
	Docs []BulkDoc `json:"docs,omitempty"`
	// Workers sets the BULKLOAD pipeline's parse/shred concurrency
	// (0 = server default).
	Workers int `json:"workers,omitempty"`
	// BatchDocs / BatchBytes bound one BULKLOAD commit batch (0 = server
	// default).
	BatchDocs  int   `json:"batch_docs,omitempty"`
	BatchBytes int64 `json:"batch_bytes,omitempty"`
	// KeepGoing makes BULKLOAD record per-document failures and continue
	// instead of stopping at the first bad document.
	KeepGoing bool `json:"keep_going,omitempty"`
}

// BulkDoc is one document inside a BULKLOAD request.
type BulkDoc struct {
	Name string `json:"name,omitempty"`
	XML  string `json:"xml"`
}

// Response is one server frame.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
	// DocID reports the identifier assigned by LOAD.
	DocID int `json:"docid,omitempty"`
	// Affected reports rows affected by a non-SELECT SQL statement.
	Affected int `json:"affected,omitempty"`
	// Cols and Rows carry a SELECT/XPATH result set. Values are JSON
	// scalars: strings, numbers, null; objects, collections and REFs are
	// rendered in the engine's literal syntax.
	Cols []string `json:"cols,omitempty"`
	Rows [][]any  `json:"rows,omitempty"`
	// SQL echoes the statement an XPATH translated to.
	SQL string `json:"sql,omitempty"`
	// XML carries a RETRIEVE result.
	XML string `json:"xml,omitempty"`
	// Stores lists hosted store names (STORES).
	Stores []string `json:"stores,omitempty"`
	// Stats carries the STATS payload.
	Stats *Stats `json:"stats,omitempty"`
	// Role reports the server's replication role ("primary"/"replica")
	// on PROMOTE/POSITION responses and read-only rejections.
	Role string `json:"role,omitempty"`
	// Primary names the writable primary's address on read-only
	// rejections and POSITION responses, so clients can redirect writes.
	Primary string `json:"primary,omitempty"`
	// LSN reports a log position: the promoted tail LSN on PROMOTE, the
	// total durable LSN on POSITION, and the store's last WAL position
	// after a successful write verb — the token a client passes back as
	// WaitLSN for read-your-writes.
	LSN uint64 `json:"lsn,omitempty"`
	// Epoch reports the primary's current timeline on a REPLICATE OK
	// (the replica adopts it when it seeds or fast-forwards) and the
	// highest store epoch on POSITION.
	Epoch uint64 `json:"epoch,omitempty"`
	// Epochs is the primary's epoch history on a REPLICATE OK: where
	// each timeline began, so a feeding replica or promoted server can later
	// prove which old-epoch replicas may stream instead of re-seeding.
	Epochs []EpochStart `json:"epochs,omitempty"`
	// Peers is the cluster member list on POSITION responses: advertised
	// addresses of the primary and its election-eligible replicas.
	Peers []string `json:"peers,omitempty"`
	// Bulk carries the per-document outcome of a BULKLOAD.
	Bulk *BulkResult `json:"bulk,omitempty"`
}

// BulkResult is the BULKLOAD outcome: per-document results in request
// order plus the loaded/failed tallies. A response can be OK with
// Failed > 0 when KeepGoing was set — the batch partially succeeded and
// Docs says which documents made it.
type BulkResult struct {
	Loaded int             `json:"loaded"`
	Failed int             `json:"failed,omitempty"`
	Docs   []BulkDocResult `json:"docs,omitempty"`
}

// BulkDocResult is one document's outcome inside a BULKLOAD.
type BulkDocResult struct {
	Name  string `json:"name,omitempty"`
	DocID int    `json:"docid,omitempty"`
	Error string `json:"error,omitempty"`
}

// EpochStart records where one replication timeline began: StartLSN is
// the first LSN written on Epoch (promotion forks at StartLSN-1). The
// history lets a feeder prove that a replica still on an older epoch
// never applied anything past the fork and can stream forward instead
// of re-seeding from a snapshot.
type EpochStart struct {
	Epoch    uint64 `json:"epoch"`
	StartLSN uint64 `json:"start_lsn"`
}

// Err converts a failed response into an error (nil when OK).
func (r *Response) Err() error {
	if r.OK {
		return nil
	}
	return &ServerError{Code: r.Code, Message: r.Error}
}

// ServerError is a protocol-level failure reported by the server.
type ServerError struct {
	Code    string
	Message string
}

func (e *ServerError) Error() string {
	if e.Code == "" {
		return "xmlordbd: " + e.Message
	}
	return fmt.Sprintf("xmlordbd: %s (%s)", e.Message, e.Code)
}

// Stats is the STATS payload: server-wide gauges, per-verb counters and
// per-store engine statistics.
type Stats struct {
	SessionsOpen  int64        `json:"sessions_open"`
	SessionsTotal int64        `json:"sessions_total"`
	Draining      bool         `json:"draining,omitempty"`
	Snapshots     int64        `json:"snapshots,omitempty"`
	Timeouts      int64        `json:"timeouts,omitempty"`
	Oversized     int64        `json:"oversized,omitempty"`
	Verbs         []VerbStat   `json:"verbs,omitempty"`
	StoreStats    []StoreStats `json:"stores,omitempty"`
	// Repl reports replication state: role, upstream, per-store feeder
	// or applier positions. Nil when replication is not in play.
	Repl *ReplStats `json:"repl,omitempty"`
}

// VerbStat counts one verb's requests and total latency.
type VerbStat struct {
	Verb       string `json:"verb"`
	Count      int64  `json:"count"`
	Errors     int64  `json:"errors,omitempty"`
	TotalNanos int64  `json:"total_ns"`
}

// StoreStats reports one hosted store's engine counters.
type StoreStats struct {
	Name        string `json:"name"`
	Documents   int    `json:"documents"`
	ParseHits   int64  `json:"parse_hits"`
	ParseMisses int64  `json:"parse_misses"`
	PlanHits    int64  `json:"plan_hits"`
	PlanMisses  int64  `json:"plan_misses"`
	Inserts     int64  `json:"inserts"`
	RowsScanned int64  `json:"rows_scanned"`
	Derefs      int64  `json:"derefs"`
	IndexProbes int64  `json:"index_probes"`
	// Durable and the WAL* fields describe the write-ahead log of a
	// durable store; all stay zero for in-memory stores.
	Durable          bool   `json:"durable,omitempty"`
	WALRecords       int64  `json:"wal_records,omitempty"`
	WALBytes         int64  `json:"wal_bytes,omitempty"`
	WALFsyncs        int64  `json:"wal_fsyncs,omitempty"`
	WALCommits       int64  `json:"wal_commits,omitempty"`
	WALReplayed      int    `json:"wal_replayed,omitempty"`
	WALLastLSN       uint64 `json:"wal_last_lsn,omitempty"`
	WALCheckpointLSN uint64 `json:"wal_checkpoint_lsn,omitempty"`
	// Ingest* report the store's bulk-ingest counters: pipeline runs,
	// documents loaded/failed, commit batches, raw XML bytes, total
	// pipeline wall-clock nanos and the worker count of the last run.
	IngestRuns    int64 `json:"ingest_runs,omitempty"`
	IngestDocs    int64 `json:"ingest_docs,omitempty"`
	IngestFailed  int64 `json:"ingest_failed,omitempty"`
	IngestBatches int64 `json:"ingest_batches,omitempty"`
	IngestBytes   int64 `json:"ingest_bytes,omitempty"`
	IngestNanos   int64 `json:"ingest_nanos,omitempty"`
	IngestWorkers int   `json:"ingest_workers,omitempty"`
}

// Framing errors.
var (
	// ErrFrameTooLarge reports a frame exceeding the reader's limit.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrEmptyFrame reports a blank line (no payload before the newline).
	ErrEmptyFrame = errors.New("wire: empty frame")
)

// DefaultMaxFrame bounds a frame (request or response) when the caller
// does not choose a limit: 16 MiB, comfortably above the 4000-byte
// VARCHAR rows the mapping produces while still refusing runaway input.
const DefaultMaxFrame = 16 << 20

// ReadFrame reads one newline-terminated frame from br, enforcing max
// bytes (excluding the terminator). A frame larger than max returns
// ErrFrameTooLarge after draining up to the terminator is abandoned —
// callers should close the connection, since the stream is no longer
// aligned. EOF before any byte returns io.EOF; EOF mid-frame returns
// io.ErrUnexpectedEOF.
func ReadFrame(br *bufio.Reader, max int) ([]byte, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	var buf []byte
	for {
		chunk, err := br.ReadSlice('\n')
		if len(buf)+len(chunk) > max+1 { // +1 for the terminator itself
			return nil, ErrFrameTooLarge
		}
		buf = append(buf, chunk...)
		switch err {
		case nil:
			line := bytes.TrimRight(buf, "\r\n")
			if len(bytes.TrimSpace(line)) == 0 {
				return nil, ErrEmptyFrame
			}
			return line, nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			if len(buf) == 0 {
				return nil, io.EOF
			}
			return nil, io.ErrUnexpectedEOF
		default:
			return nil, err
		}
	}
}

// WriteFrame JSON-encodes v and writes it as one newline-terminated
// frame. encoding/json escapes control characters, so the payload can
// never contain a raw newline.
func WriteFrame(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// DecodeRequest parses a request frame, rejecting unknown fields and
// trailing garbage so malformed clients fail loudly rather than half-work.
func DecodeRequest(line []byte) (*Request, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("wire: bad request frame: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("wire: trailing data after request frame")
	}
	if req.Verb == "" {
		return nil, fmt.Errorf("wire: request missing verb")
	}
	return &req, nil
}

// DecodeResponse parses a response frame.
func DecodeResponse(line []byte) (*Response, error) {
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return nil, fmt.Errorf("wire: bad response frame: %w", err)
	}
	return &resp, nil
}
