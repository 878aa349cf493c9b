package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Replication streaming. After a REPLICATE handshake the connection
// carries newline-delimited JSON frames in both directions: the primary
// sends ReplFrame frames (snapshot chunks, commit units, heartbeats,
// control), the replica sends ReplAck frames reporting its applied
// position. Record payloads and snapshot chunks are []byte, which
// encoding/json carries as base64 — the framing stays one JSON object
// per line, same as the request/response protocol.

// ReplFrame types.
const (
	// ReplSnap is one chunk of a checkpoint snapshot transfer. LSN is
	// the WAL position the snapshot covers (same for every chunk); Data
	// is the chunk; Last marks the final chunk.
	ReplSnap = "snap"
	// ReplUnit carries a committed WAL commit unit. Recs are its records
	// in LSN order; PrimaryLSN is the primary's current last LSN for lag
	// accounting. A unit too large for one frame is split across
	// consecutive unit frames: only the final frame has Last set, and a
	// record split mid-payload has Partial set with its continuation as
	// the next frame's first record. The replica reassembles and applies
	// the unit only when Last arrives.
	ReplUnit = "unit"
	// ReplHeartbeat is a periodic liveness/lag frame: PrimaryLSN, plus
	// the lease metadata (Primary, Peers) that keeps replicas' cluster
	// views current. Receiving any frame renews the replica's lease on
	// its upstream; heartbeats bound how stale the lease can be.
	ReplHeartbeat = "hb"
	// ReplError carries a fatal stream error before the primary closes.
	ReplError = "err"
)

// ReplMaxFrame bounds one replication stream frame. Snapshot chunks are
// bounded by the sender (ReplSnapChunk), but a single commit unit can
// carry a whole document plus base64 overhead, so the limit is above
// the request-path DefaultMaxFrame.
const ReplMaxFrame = 64 << 20

// ReplSnapChunk is the snapshot transfer chunk size before base64.
const ReplSnapChunk = 1 << 20

// ReplUnitChunk is the raw payload budget per unit frame before base64:
// a unit whose records exceed it is split across frames. 8 MiB of raw
// payload stays far below ReplMaxFrame even after the ~4/3 base64
// expansion, so a WAL record of any size (MaxPayload = 256 MiB) ships
// without ever producing an oversized frame.
const ReplUnitChunk = 8 << 20

// ReplRecord is one WAL record on the wire.
type ReplRecord struct {
	LSN    uint64 `json:"lsn"`
	Type   byte   `json:"type"`
	Commit bool   `json:"commit,omitempty"`
	// Partial marks a record whose payload continues in the next
	// frame's first record (same LSN/Type; flags carried by the final
	// piece).
	Partial bool   `json:"partial,omitempty"`
	Payload []byte `json:"payload,omitempty"`
}

// ReplFrame is one primary→replica stream frame.
type ReplFrame struct {
	Type string `json:"type"`
	// LSN is the snapshot position for snap frames and the last LSN of
	// the unit for unit frames.
	LSN uint64 `json:"lsn,omitempty"`
	// PrimaryLSN is the primary's last LSN at send time (unit, hb).
	PrimaryLSN uint64 `json:"primary_lsn,omitempty"`
	// Data is one snapshot chunk (snap).
	Data []byte `json:"data,omitempty"`
	// Last marks the final snapshot chunk (snap) or the final frame of a
	// chunked commit unit (unit).
	Last bool `json:"last,omitempty"`
	// Recs are the commit unit's records (unit).
	Recs []ReplRecord `json:"recs,omitempty"`
	// Error carries the failure text (err).
	Error string `json:"error,omitempty"`
	// Primary is the writable primary's advertised address as the feeder
	// knows it (hb). On a feeding replica this names the primary, not the
	// feeder itself, so the receiver's read-only redirects and retarget
	// probe go to the primary.
	Primary string `json:"primary,omitempty"`
	// Peers is the cluster member list (hb): advertised addresses of the
	// primary and its election-eligible replicas. Replicas persist it so
	// an election can be held even after a full-cluster restart.
	Peers []string `json:"peers,omitempty"`
	// Lease marks a frame whose sender's replication chain roots at a
	// live primary (the sender IS the primary, or the sender's own lease
	// is rooted-fresh). Only lease-bearing frames renew the receiver's
	// election lease: freshness can originate solely at a real primary,
	// so a cycle of headless replicas feeding each other cannot keep its
	// own leases alive and elections re-fire until someone promotes.
	Lease bool `json:"lease,omitempty"`
	// Epoch is the feeder's current timeline at send time (hb), with
	// Epochs its history. A feeder that promotes mid-stream (a replica
	// feeding an election loser wins the election) keeps streaming the same
	// continuous WAL, so the receiver's state stays a valid prefix of
	// the new timeline — these fields let it adopt the bumped epoch
	// without a reconnect, which would otherwise force a needless
	// snapshot re-seed at the next handshake.
	Epoch  uint64       `json:"epoch,omitempty"`
	Epochs []EpochStart `json:"epochs,omitempty"`
}

// ReplAck is one replica→primary stream frame: the highest LSN the
// replica has durably applied.
type ReplAck struct {
	LSN uint64 `json:"lsn"`
}

// DecodeReplFrame parses a primary→replica stream frame, rejecting
// unknown fields and trailing garbage.
func DecodeReplFrame(line []byte) (*ReplFrame, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var f ReplFrame
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("wire: bad repl frame: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("wire: trailing data after repl frame")
	}
	switch f.Type {
	case ReplSnap, ReplUnit, ReplHeartbeat, ReplError:
	case "":
		return nil, fmt.Errorf("wire: repl frame missing type")
	default:
		return nil, fmt.Errorf("wire: unknown repl frame type %q", f.Type)
	}
	return &f, nil
}

// DecodeReplAck parses a replica→primary ack frame.
func DecodeReplAck(line []byte) (*ReplAck, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var a ReplAck
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("wire: bad repl ack: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("wire: trailing data after repl ack")
	}
	return &a, nil
}

// ReplStats is the replication section of the STATS payload.
type ReplStats struct {
	// Role is "primary" or "replica".
	Role string `json:"role"`
	// Primary is the upstream address (replica role only).
	Primary string `json:"primary,omitempty"`
	// Stores reports per-store replication state: feeder registry
	// entries on a primary, applier status on a replica.
	Stores []ReplStoreStats `json:"stores,omitempty"`
}

// ReplStoreStats is one store's replication state.
type ReplStoreStats struct {
	Store string `json:"store"`
	// Replica-side applier state.
	Connected    bool   `json:"connected,omitempty"`
	PrimaryLSN   uint64 `json:"primary_lsn,omitempty"`
	AppliedLSN   uint64 `json:"applied_lsn,omitempty"`
	LagRecords   int64  `json:"lag_records,omitempty"`
	UnitsApplied int64  `json:"units_applied,omitempty"`
	BytesApplied int64  `json:"bytes_applied,omitempty"`
	Snapshots    int64  `json:"snapshots,omitempty"`
	// LastHeartbeatMS is milliseconds since the last frame from the
	// primary (-1 = never).
	LastHeartbeatMS int64 `json:"last_heartbeat_ms,omitempty"`
	// Primary-side feeder registry.
	Replicas []ReplicaStat `json:"replicas,omitempty"`
}

// ReplicaStat is one connected replica as seen by the primary.
type ReplicaStat struct {
	Addr       string `json:"addr"`
	AckedLSN   uint64 `json:"acked_lsn"`
	LagRecords int64  `json:"lag_records"`
	SentUnits  int64  `json:"sent_units,omitempty"`
	SentBytes  int64  `json:"sent_bytes,omitempty"`
	// SnapshotSent reports that this session began with a snapshot
	// transfer (the replica was behind retention or empty).
	SnapshotSent bool `json:"snapshot_sent,omitempty"`
	// LastAckMS is milliseconds since the replica's last ack (-1 = never).
	LastAckMS int64 `json:"last_ack_ms,omitempty"`
}
