// Package wal implements a segmented, append-only write-ahead log: the
// durability layer between snapshots. Every committed store mutation is
// framed as one CRC32C-protected record with a monotonic log sequence
// number (LSN) and appended to the active segment file; recovery restores
// the latest snapshot and replays the log tail.
//
// Durability is configurable per log:
//
//   - SyncAlways:  every commit waits for an fsync. Concurrent committers
//     are batched into one fsync (group commit): while one fsync is in
//     flight, later committers queue, and the next fsync covers all of
//     them at once.
//   - SyncInterval: a background flusher fsyncs on a fixed period; a
//     crash loses at most that window of acknowledged commits.
//   - SyncNever:  records are written to the file (so they survive a
//     process crash via the OS page cache) but never explicitly fsynced;
//     an OS crash may lose everything since the last snapshot.
//
// Commit units. AppendBatch writes a multi-record transaction as one
// commit unit: the frames are contiguous, never straddle a segment, and
// the final frame carries a commit flag. Recovery only surfaces whole
// units, so a crash can never replay half a transaction as if it had
// committed.
//
// Torn tails vs corruption. A crash can leave a partially written final
// record — the frame's declared length extends past the end of the file
// — or a complete run of frames whose commit flag never made it to
// disk. Open truncates either tail and continues: the bytes belong to a
// commit that was never acknowledged. A record whose bytes are fully
// present but whose CRC does not match, or a broken frame with intact
// data after it, is mid-log corruption: the log refuses to open rather
// than silently dropping acknowledged commits.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy string

const (
	// SyncAlways fsyncs before Append returns (group-committed).
	SyncAlways SyncPolicy = "always"
	// SyncInterval fsyncs on a background timer.
	SyncInterval SyncPolicy = "interval"
	// SyncNever writes without explicit fsync.
	SyncNever SyncPolicy = "never"
)

// ParsePolicy validates a policy string ("always", "interval", "never").
func ParsePolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(strings.ToLower(s)) {
	case SyncAlways:
		return SyncAlways, nil
	case SyncInterval:
		return SyncInterval, nil
	case SyncNever:
		return SyncNever, nil
	}
	return "", fmt.Errorf("wal: unknown sync policy %q (always|interval|never)", s)
}

// Options tunes a Log. The zero value means SyncAlways, 50ms interval,
// 4MiB segments.
type Options struct {
	Sync         SyncPolicy
	SyncInterval time.Duration
	SegmentBytes int64
	// StartLSN, when > 1, makes a freshly created (empty) log allocate
	// its first LSN there instead of at 1 — used when bootstrapping a
	// replica from a snapshot taken at StartLSN-1. Ignored when the
	// directory already holds segments.
	StartLSN uint64
}

func (o Options) sync() SyncPolicy {
	if o.Sync == "" {
		return SyncAlways
	}
	return o.Sync
}

func (o Options) interval() time.Duration {
	if o.SyncInterval <= 0 {
		return 50 * time.Millisecond
	}
	return o.SyncInterval
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return 4 << 20
	}
	return o.SegmentBytes
}

// Record is one logical redo record. Commit marks the final record of
// its commit unit; recovery discards a trailing unit whose commit
// record never reached disk.
type Record struct {
	LSN     uint64
	Type    byte
	Commit  bool
	Payload []byte
}

// Frame layout (little endian):
//
//	u32  payload length
//	u32  CRC32C over [lsn | type | flags | payload]
//	u64  lsn
//	u8   record type
//	u8   flags (bit 0: commit — ends its commit unit)
//	...  payload
const frameHeaderSize = 4 + 4 + 8 + 1 + 1

// flagCommit marks the last record of a commit unit. Other flag bits
// are reserved and rejected as corruption.
const flagCommit = 0x01

// MaxPayload bounds one record; larger declared lengths are corruption.
const MaxPayload = 256 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors.
var (
	// ErrCorrupt reports mid-log corruption: a CRC mismatch, an insane
	// frame length, an LSN discontinuity, or a broken frame that is not
	// the final record of the final segment.
	ErrCorrupt = errors.New("wal: corrupt log")
	// errTorn reports an incomplete final frame (recoverable: truncate).
	errTorn = errors.New("wal: torn tail record")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("wal: log closed")
	// ErrPoisoned reports that a failed append left bytes in the active
	// segment that could not be rolled back. The log refuses further
	// appends so the damage stays at the tail, where the next Open
	// repairs it like any torn tail instead of refusing the whole log.
	ErrPoisoned = errors.New("wal: log disabled after failed write (reopen to repair)")
)

// AppendFrame encodes one record frame onto dst and returns the extended
// slice. commit marks the record as the last of its commit unit.
func AppendFrame(dst []byte, lsn uint64, typ byte, commit bool, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:16], lsn)
	hdr[16] = typ
	if commit {
		hdr[17] = flagCommit
	}
	crc := crc32.Update(0, castagnoli, hdr[8:18])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// DecodeFrame decodes the first frame of b. It returns the record, the
// number of bytes consumed, and an error: io.EOF when b is empty, a
// torn-tail error when b holds only a prefix of a frame, ErrCorrupt when
// the bytes are present but wrong. The payload aliases b.
func DecodeFrame(b []byte) (Record, int, error) {
	if len(b) == 0 {
		return Record{}, 0, io.EOF
	}
	if len(b) < frameHeaderSize {
		return Record{}, 0, errTorn
	}
	plen := binary.LittleEndian.Uint32(b[0:4])
	if plen > MaxPayload {
		return Record{}, 0, fmt.Errorf("%w: frame declares %d payload bytes", ErrCorrupt, plen)
	}
	total := frameHeaderSize + int(plen)
	if len(b) < total {
		return Record{}, 0, errTorn
	}
	want := binary.LittleEndian.Uint32(b[4:8])
	crc := crc32.Update(0, castagnoli, b[8:18])
	crc = crc32.Update(crc, castagnoli, b[frameHeaderSize:total])
	if crc != want {
		return Record{}, 0, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	if b[17]&^flagCommit != 0 {
		return Record{}, 0, fmt.Errorf("%w: unknown frame flags %#x", ErrCorrupt, b[17])
	}
	return Record{
		LSN:     binary.LittleEndian.Uint64(b[8:16]),
		Type:    b[16],
		Commit:  b[17]&flagCommit != 0,
		Payload: b[frameHeaderSize:total],
	}, total, nil
}

// segment is one on-disk log file, named by the LSN of its first record.
type segment struct {
	path     string
	firstLSN uint64
}

func segmentName(firstLSN uint64) string {
	return fmt.Sprintf("%020d.wal", firstLSN)
}

func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasSuffix(name, ".wal") || len(name) != 24 {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(name, ".wal"), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Stats is a point-in-time snapshot of a log's counters. Appends, Bytes,
// Fsyncs and the group-commit counters cover this process's lifetime;
// the LSN fields describe the log itself.
type Stats struct {
	// Appends counts records appended.
	Appends int64
	// Bytes counts frame bytes appended.
	Bytes int64
	// Fsyncs counts fsync calls issued.
	Fsyncs int64
	// SyncWaits counts commits that waited for a SyncAlways fsync; the
	// group-commit batch size is SyncWaits/Fsyncs when both are nonzero.
	SyncWaits int64
	// TruncatedTail reports that Open discarded a torn final record or
	// an unacknowledged trailing commit unit.
	TruncatedTail bool
	// Segments is the current number of segment files.
	Segments int
	// LastLSN is the highest assigned LSN (0 = empty log).
	LastLSN uint64
	// SyncedLSN is the highest LSN known to be fsynced.
	SyncedLSN uint64
}

// Log is an append-only write-ahead log over a directory of segments.
// Append is safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	appends   atomic.Int64
	bytes     atomic.Int64
	fsyncs    atomic.Int64
	syncWaits atomic.Int64
	truncated bool

	// mu guards the file, segment list and LSN allocation.
	mu       sync.Mutex
	segments []segment
	file     *os.File
	size     int64
	nextLSN  uint64
	closed   bool
	poisoned bool
	scratch  []byte

	// subs are append-notification channels (Subscribe); pins are
	// retention floors (Pin). Both guarded by mu.
	subs map[chan struct{}]struct{}
	pins map[*Pin]struct{}

	// writeHook, when non-nil, replaces segment writes (fault injection
	// in tests). Called with mu held.
	writeHook func(f *os.File, b []byte) (int, error)

	// syncMu guards the group-commit state.
	syncMu    sync.Mutex
	syncCond  *sync.Cond
	syncing   bool
	syncedLSN uint64
	flushStop chan struct{}
	flushDone chan struct{}
}

// Open opens (or creates) the log in dir for appending. A torn tail —
// a partially written final frame, or trailing complete frames whose
// commit unit never got its commit record — is truncated away; any
// other inconsistency fails with ErrCorrupt.
func Open(dir string, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, nextLSN: 1}
	l.syncCond = sync.NewCond(&l.syncMu)
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l.segments = segs
	if len(segs) == 0 {
		if opts.StartLSN > 1 {
			l.nextLSN = opts.StartLSN
		}
		if err := l.openSegmentLocked(l.nextLSN); err != nil {
			return nil, err
		}
	} else {
		last := segs[len(segs)-1]
		lastLSN, size, torn, err := scanSegmentTail(last)
		if err != nil {
			return nil, err
		}
		if torn {
			if err := os.Truncate(last.path, size); err != nil {
				return nil, err
			}
			l.truncated = true
		}
		f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		// The previous process may have written this tail without ever
		// fsyncing it (SyncInterval/SyncNever). Sync once before counting
		// it as durable, or the flusher would skip it forever and an OS
		// crash could lose records recovery already replayed.
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		l.fsyncs.Add(1)
		l.file = f
		l.size = size
		if lastLSN == 0 {
			l.nextLSN = last.firstLSN
		} else {
			l.nextLSN = lastLSN + 1
		}
	}
	l.syncedLSN = l.nextLSN - 1 // everything on disk is now fsynced
	if opts.sync() == SyncInterval {
		l.flushStop = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop()
	}
	return l, nil
}

// listSegments returns the directory's segment files in LSN order.
func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if first, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, segment{path: filepath.Join(dir, e.Name()), firstLSN: first})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstLSN < segs[j].firstLSN })
	return segs, nil
}

// scanSegmentTail walks a segment to its end, returning the LSN of the
// last committed record (0 if the segment holds none), the byte offset
// just past its frame, and whether trailing bytes follow that point — a
// partially written frame, or complete frames whose commit record never
// reached disk. Either tail belongs to a commit that was never
// acknowledged and must be truncated.
func scanSegmentTail(seg segment) (lastLSN uint64, end int64, torn bool, err error) {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return 0, 0, false, err
	}
	off := 0
	for {
		rec, n, derr := DecodeFrame(data[off:])
		if derr == io.EOF || errors.Is(derr, errTorn) {
			return lastLSN, end, end < int64(len(data)), nil
		}
		if derr != nil {
			return 0, 0, false, fmt.Errorf("%s @%d: %w", seg.path, off, derr)
		}
		off += n
		if rec.Commit {
			lastLSN = rec.LSN
			end = int64(off)
		}
	}
}

// openSegmentLocked creates and activates a fresh segment starting at
// firstLSN. Callers hold l.mu (or have exclusive access during Open).
func (l *Log) openSegmentLocked(firstLSN uint64) error {
	path := filepath.Join(l.dir, segmentName(firstLSN))
	// O_APPEND so writes land at the true EOF even after a failed write
	// is truncated away — a plain fd would keep its offset past the tear
	// and leave a hole of zero bytes.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.segments = append(l.segments, segment{path: path, firstLSN: firstLSN})
	l.file = f
	l.size = 0
	syncDir(l.dir)
	return nil
}

// Entry is one record of an AppendBatch commit unit.
type Entry struct {
	Type    byte
	Payload []byte
}

// Append frames one record, writes it to the active segment and applies
// the sync policy: under SyncAlways it returns only once the record is
// fsynced (sharing the fsync with concurrent committers). It returns the
// record's LSN.
func (l *Log) Append(typ byte, payload []byte) (uint64, error) {
	return l.AppendBatch([]Entry{{Type: typ, Payload: payload}})
}

// AppendBatch appends entries as ONE commit unit: the frames are written
// contiguously in a single segment, the final frame carries the commit
// flag (so recovery surfaces all of the unit or none of it), and the
// sync policy is applied once for the whole unit — a multi-record
// transaction costs a single (group-committed) fsync under SyncAlways,
// not one per record. It returns the LSN of the last record appended.
func (l *Log) AppendBatch(entries []Entry) (uint64, error) {
	if len(entries) == 0 {
		return l.LastLSN(), nil
	}
	var batchBytes int64
	for _, e := range entries {
		batchBytes += int64(frameHeaderSize + len(e.Payload))
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	if l.poisoned {
		l.mu.Unlock()
		return 0, ErrPoisoned
	}
	// Rotate before the batch so a commit unit never straddles segments;
	// a unit larger than a whole segment gets an oversized segment of
	// its own instead of being split.
	if l.size > 0 && l.size+batchBytes > l.opts.segmentBytes() {
		if err := l.rotateLocked(); err != nil {
			l.mu.Unlock()
			return 0, err
		}
	}
	first := l.nextLSN
	l.scratch = l.scratch[:0]
	for i, e := range entries {
		l.scratch = AppendFrame(l.scratch, first+uint64(i), e.Type, i == len(entries)-1, e.Payload)
	}
	n, err := l.writeLocked(l.scratch)
	if err != nil {
		// Roll the file back to the last durable boundary so the partial
		// bytes cannot become mid-log garbage under later appends. If even
		// that fails, poison the log: the tear stays at the tail, where
		// the next Open truncates it instead of refusing the whole store.
		if n > 0 {
			if terr := l.file.Truncate(l.size); terr != nil {
				l.size += int64(n)
				l.poisoned = true
			}
		}
		l.mu.Unlock()
		return 0, err
	}
	l.size += int64(n)
	l.nextLSN = first + uint64(len(entries))
	last := l.nextLSN - 1
	l.notifyLocked()
	l.mu.Unlock()
	l.appends.Add(int64(len(entries)))
	l.bytes.Add(int64(n))
	if l.opts.sync() == SyncAlways {
		l.syncWaits.Add(1)
		if err := l.syncTo(last); err != nil {
			return 0, err
		}
	}
	return last, nil
}

// SetWriteHook installs (or, with nil, removes) a function that replaces
// segment writes — the fault-injection point of this package's tests,
// exported so tests of the layers above can fail or stall an append at
// the moment it reaches the file. The hook runs with the log's append
// lock held.
func (l *Log) SetWriteHook(h func(f *os.File, b []byte) (int, error)) {
	l.mu.Lock()
	l.writeHook = h
	l.mu.Unlock()
}

// writeLocked writes b to the active segment. Callers hold l.mu.
func (l *Log) writeLocked(b []byte) (int, error) {
	if l.writeHook != nil {
		return l.writeHook(l.file, b)
	}
	return l.file.Write(b)
}

// rotateLocked fsyncs and closes the active segment and opens the next
// one. Callers hold l.mu.
func (l *Log) rotateLocked() error {
	if err := l.file.Sync(); err != nil {
		return err
	}
	l.fsyncs.Add(1)
	if err := l.file.Close(); err != nil {
		return err
	}
	return l.openSegmentLocked(l.nextLSN)
}

// syncTo blocks until every record up to and including lsn is fsynced.
// Concurrent callers elect one leader whose single fsync covers the whole
// group (group commit).
func (l *Log) syncTo(lsn uint64) error {
	l.syncMu.Lock()
	for {
		if l.syncedLSN >= lsn {
			l.syncMu.Unlock()
			return nil
		}
		if !l.syncing {
			break
		}
		l.syncCond.Wait()
	}
	l.syncing = true
	l.syncMu.Unlock()

	l.mu.Lock()
	var err error
	var covered uint64
	if l.closed {
		err = ErrClosed
	} else {
		covered = l.nextLSN - 1 // the fsync covers everything written so far
		err = l.file.Sync()
	}
	l.mu.Unlock()

	l.syncMu.Lock()
	l.syncing = false
	if err == nil {
		l.fsyncs.Add(1)
		if covered > l.syncedLSN {
			l.syncedLSN = covered
		}
	}
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
	if err != nil {
		return err
	}
	// The leader's fsync may predate our own record (it raced ahead of
	// our write becoming visible); loop until covered.
	return l.syncTo(lsn)
}

// Sync forces an fsync of everything appended so far.
func (l *Log) Sync() error {
	l.mu.Lock()
	last := l.nextLSN - 1
	l.mu.Unlock()
	if last == 0 {
		return nil
	}
	return l.syncTo(last)
}

// flushLoop is the SyncInterval background flusher.
func (l *Log) flushLoop() {
	defer close(l.flushDone)
	t := time.NewTicker(l.opts.interval())
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.syncMu.Lock()
			synced := l.syncedLSN
			l.syncMu.Unlock()
			l.mu.Lock()
			last := l.nextLSN - 1
			l.mu.Unlock()
			if last > synced {
				l.Sync()
			}
		case <-l.flushStop:
			return
		}
	}
}

// LastLSN reports the highest assigned LSN (0 = empty).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// SyncedLSN reports the highest LSN known to be fsynced. Under
// SyncAlways it trails LastLSN only inside an Append call; under
// SyncInterval it lags by at most one flush period; under SyncNever it
// advances only on rotation and Close.
func (l *Log) SyncedLSN() uint64 {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.syncedLSN
}

// Replay streams every record with LSN >= fromLSN, in order, to fn. A
// non-nil error from fn aborts the replay. Records are surfaced one
// whole commit unit at a time: a trailing unit whose commit record is
// missing was never acknowledged and is skipped. Replay verifies LSNs
// are contiguous and fails with ErrCorrupt on a broken frame or an
// unterminated unit anywhere except the (already truncated) tail.
func (l *Log) Replay(fromLSN uint64, fn func(Record) error) (int, error) {
	l.mu.Lock()
	segs := append([]segment(nil), l.segments...)
	l.mu.Unlock()
	applied := 0
	var expect uint64
	var unit []Record // records awaiting their unit's commit frame
	for i, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return applied, err
		}
		off := 0
		for {
			rec, n, derr := DecodeFrame(data[off:])
			if derr == io.EOF {
				break
			}
			if errors.Is(derr, errTorn) {
				if i == len(segs)-1 {
					break // truncated tail; Open already handled the file
				}
				return applied, fmt.Errorf("%w: incomplete record mid-log in %s", ErrCorrupt, seg.path)
			}
			if derr != nil {
				return applied, fmt.Errorf("%s @%d: %w", seg.path, off, derr)
			}
			off += n
			if expect != 0 && rec.LSN != expect {
				return applied, fmt.Errorf("%w: LSN %d follows %d in %s", ErrCorrupt, rec.LSN, expect-1, seg.path)
			}
			expect = rec.LSN + 1
			// Copy the payload out of the file buffer before handing it on.
			rec.Payload = append([]byte(nil), rec.Payload...)
			unit = append(unit, rec)
			if !rec.Commit {
				continue
			}
			for _, r := range unit {
				if r.LSN < fromLSN {
					continue
				}
				if err := fn(r); err != nil {
					return applied, err
				}
				applied++
			}
			unit = unit[:0]
		}
		// A commit unit never straddles segments, so leftovers at the end
		// of a non-final segment are corruption; at the end of the log
		// they are an unacknowledged tail Open normally truncates.
		if len(unit) > 0 && i != len(segs)-1 {
			return applied, fmt.Errorf("%w: commit unit without commit record in %s", ErrCorrupt, seg.path)
		}
	}
	return applied, nil
}

// TruncateBefore deletes whole segments every record of which has
// LSN < lsn — the checkpoint truncation. The active segment is never
// deleted, and the effective cutoff is clamped to the lowest retention
// Pin, so a replica still reading its backlog keeps its segments.
func (l *Log) TruncateBefore(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if pin := l.minPinLocked(); pin != 0 && pin < lsn {
		lsn = pin
	}
	kept := l.segments[:0]
	for i, seg := range l.segments {
		// A segment is obsolete when a successor exists and that successor
		// starts at or below lsn (so every record here is < lsn).
		if i+1 < len(l.segments) && l.segments[i+1].firstLSN <= lsn {
			if err := os.Remove(seg.path); err != nil {
				return err
			}
			continue
		}
		kept = append(kept, seg)
	}
	l.segments = append([]segment(nil), kept...)
	syncDir(l.dir)
	return nil
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	segs := len(l.segments)
	last := l.nextLSN - 1
	l.mu.Unlock()
	l.syncMu.Lock()
	synced := l.syncedLSN
	l.syncMu.Unlock()
	return Stats{
		Appends:       l.appends.Load(),
		Bytes:         l.bytes.Load(),
		Fsyncs:        l.fsyncs.Load(),
		SyncWaits:     l.syncWaits.Load(),
		TruncatedTail: l.truncated,
		Segments:      segs,
		LastLSN:       last,
		SyncedLSN:     synced,
	}
}

// Close stops the background flusher, fsyncs the tail and closes the
// active segment.
func (l *Log) Close() error {
	if l.flushStop != nil {
		close(l.flushStop)
		<-l.flushDone
		l.flushStop = nil
	}
	syncErr := l.Sync()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.closed = true
	l.notifyLocked() // wake parked tailers so WaitFor observes the close
	err := l.file.Close()
	if syncErr != nil {
		return syncErr
	}
	return err
}

// syncDir fsyncs a directory so entry creation/removal is durable; errors
// are ignored (not all platforms support it).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
