package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func openT(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func collect(t *testing.T, l *Log, from uint64) []Record {
	t.Helper()
	var out []Record
	if _, err := l.Replay(from, func(r Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncAlways})
	var want []Record
	for i := 0; i < 20; i++ {
		payload := []byte(fmt.Sprintf("record-%d", i))
		lsn, err := l.Append(byte(i%3+1), payload)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("LSN = %d, want %d", lsn, i+1)
		}
		want = append(want, Record{LSN: lsn, Type: byte(i%3 + 1), Payload: payload})
	}
	got := collect(t, l, 1)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].LSN != want[i].LSN || got[i].Type != want[i].Type || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Replay from the middle.
	mid := collect(t, l, 11)
	if len(mid) != 10 || mid[0].LSN != 11 {
		t.Fatalf("partial replay got %d records, first LSN %d", len(mid), mid[0].LSN)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestReopenContinuesLSNs(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if _, err := l.Append(1, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	l2 := openT(t, dir, Options{})
	lsn, err := l2.Append(1, []byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 6 {
		t.Fatalf("LSN after reopen = %d, want 6", lsn)
	}
	if got := collect(t, l2, 1); len(got) != 6 {
		t.Fatalf("replayed %d records, want 6", len(got))
	}
	l2.Close()
}

func TestSegmentRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentBytes: 256})
	payload := bytes.Repeat([]byte("a"), 40)
	for i := 0; i < 30; i++ {
		if _, err := l.Append(1, payload); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected rotation to produce >= 3 segments, got %d", st.Segments)
	}
	if got := collect(t, l, 1); len(got) != 30 {
		t.Fatalf("replayed %d records across segments, want 30", len(got))
	}
	// Checkpoint at LSN 20: every segment wholly below survives only if
	// it still holds records >= 21.
	if err := l.TruncateBefore(21); err != nil {
		t.Fatal(err)
	}
	got := collect(t, l, 21)
	if len(got) != 10 || got[0].LSN != 21 {
		t.Fatalf("post-truncate replay: %d records, first %d", len(got), got[0].LSN)
	}
	if after := l.Stats().Segments; after >= st.Segments {
		t.Fatalf("TruncateBefore removed nothing (segments %d -> %d)", st.Segments, after)
	}
	// The log still appends fine after truncation.
	if _, err := l.Append(1, payload); err != nil {
		t.Fatal(err)
	}
	l.Close()
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if _, err := l.Append(1, []byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	// Chop the final record mid-frame: a torn tail.
	data, _ := os.ReadFile(segs[0].path)
	if err := os.WriteFile(segs[0].path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := openT(t, dir, Options{})
	if !l2.Stats().TruncatedTail {
		t.Fatal("expected TruncatedTail to be reported")
	}
	got := collect(t, l2, 1)
	if len(got) != 2 {
		t.Fatalf("replayed %d records after torn tail, want 2", len(got))
	}
	// New appends continue from the truncated position.
	lsn, err := l2.Append(1, []byte("after"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 3 {
		t.Fatalf("LSN after torn truncation = %d, want 3", lsn)
	}
	if got := collect(t, l2, 1); len(got) != 3 {
		t.Fatalf("replayed %d records, want 3", len(got))
	}
	l2.Close()
}

// frameOffsets decodes a segment file and returns the starting offset
// of every complete frame.
func frameOffsets(t *testing.T, path string) []int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int
	off := 0
	for off < len(data) {
		_, n, err := DecodeFrame(data[off:])
		if err != nil {
			break
		}
		offs = append(offs, off)
		off += n
	}
	return offs
}

func TestUncommittedBatchTailDiscardedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	for i := 0; i < 2; i++ {
		if _, err := l.Append(1, []byte(fmt.Sprintf("solo-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.AppendBatch([]Entry{
		{Type: 1, Payload: []byte("tx-a")},
		{Type: 2, Payload: []byte("tx-b")},
		{Type: 3, Payload: []byte("tx-c")},
	}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	segs, _ := listSegments(dir)
	// Drop only the batch's final, commit-flagged frame: the two complete
	// frames left behind are a commit unit whose terminator never made it
	// to disk — the page-cache-persisted-a-prefix crash.
	offs := frameOffsets(t, segs[0].path)
	if len(offs) != 5 {
		t.Fatalf("expected 5 frames, found %d", len(offs))
	}
	if err := os.Truncate(segs[0].path, int64(offs[4])); err != nil {
		t.Fatal(err)
	}
	l2 := openT(t, dir, Options{})
	defer l2.Close()
	if !l2.Stats().TruncatedTail {
		t.Fatal("expected the unterminated commit unit to be reported as a truncated tail")
	}
	got := collect(t, l2, 1)
	if len(got) != 2 {
		t.Fatalf("replayed %d records, want 2 (no partial transaction)", len(got))
	}
	for _, r := range got {
		if !bytes.HasPrefix(r.Payload, []byte("solo-")) {
			t.Fatalf("replay surfaced a record of the torn batch: %q", r.Payload)
		}
	}
	// New appends continue from the committed boundary.
	lsn, err := l2.Append(1, []byte("after"))
	if err != nil || lsn != 3 {
		t.Fatalf("Append after discard = %d, %v; want LSN 3", lsn, err)
	}
}

func TestBatchNeverStraddlesSegments(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentBytes: 100})
	const batches = 4
	for i := 0; i < batches; i++ {
		if _, err := l.AppendBatch([]Entry{
			{Type: 1, Payload: bytes.Repeat([]byte("x"), 20)},
			{Type: 1, Payload: bytes.Repeat([]byte("y"), 20)},
			{Type: 1, Payload: bytes.Repeat([]byte("z"), 20)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Stats().Segments; got != batches {
		t.Fatalf("segments = %d, want %d (one oversized segment per batch)", got, batches)
	}
	l.Close()
	// Every segment must end exactly on a committed boundary.
	segs, _ := listSegments(dir)
	for _, seg := range segs {
		if _, _, torn, err := scanSegmentTail(seg); err != nil || torn {
			t.Fatalf("segment %s: torn=%v err=%v, want a clean committed tail", seg.path, torn, err)
		}
	}
	l2 := openT(t, dir, Options{SegmentBytes: 100})
	defer l2.Close()
	if got := collect(t, l2, 1); len(got) != 3*batches {
		t.Fatalf("replayed %d records, want %d", len(got), 3*batches)
	}
}

func TestFailedWriteRolledBack(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncAlways})
	if _, err := l.Append(1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	// Inject a partial write: half the frame reaches the file, then the
	// disk "fails". The log must truncate the torn bytes away and stay
	// usable.
	l.SetWriteHook(func(f *os.File, b []byte) (int, error) {
		n, _ := f.Write(b[:len(b)/2])
		return n, fmt.Errorf("injected write failure")
	})
	if _, err := l.Append(1, []byte("torn")); err == nil {
		t.Fatal("Append with failing write succeeded")
	}
	l.SetWriteHook(nil)
	lsn, err := l.Append(1, []byte("second"))
	if err != nil {
		t.Fatalf("Append after rolled-back failure: %v", err)
	}
	if lsn != 2 {
		t.Fatalf("LSN after rollback = %d, want 2", lsn)
	}
	got := collect(t, l, 1)
	if len(got) != 2 || string(got[1].Payload) != "second" {
		t.Fatalf("replay after rollback = %d records, want [first second]", len(got))
	}
	l.Close()
	// The reopened log is clean: no torn tail, history intact.
	l2 := openT(t, dir, Options{})
	defer l2.Close()
	if l2.Stats().TruncatedTail {
		t.Fatal("rolled-back write left a torn tail for Open to repair")
	}
	if got := collect(t, l2, 1); len(got) != 2 {
		t.Fatalf("replayed %d records after reopen, want 2", len(got))
	}
}

func TestUnrollableWritePoisonsLogAndReopenRepairs(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncAlways})
	if _, err := l.Append(1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	// Inject a tear that cannot be rolled back: half a frame lands and
	// the file dies under us, so the post-failure Truncate fails too.
	l.SetWriteHook(func(f *os.File, b []byte) (int, error) {
		n, _ := f.Write(b[:len(b)/2])
		f.Close()
		return n, fmt.Errorf("injected disk loss")
	})
	if _, err := l.Append(1, []byte("torn")); err == nil {
		t.Fatal("Append with failing write succeeded")
	}
	l.SetWriteHook(nil)
	// The log is poisoned: further appends must refuse rather than bury
	// the torn bytes mid-log.
	if _, err := l.Append(1, []byte("after")); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Append on poisoned log: %v, want ErrPoisoned", err)
	}
	l.Close() // file already gone; error is expected and irrelevant
	// Reopening repairs the tear like any torn tail — the transient
	// failure must not brick recovery.
	l2 := openT(t, dir, Options{})
	defer l2.Close()
	if !l2.Stats().TruncatedTail {
		t.Fatal("expected Open to truncate the torn tail")
	}
	got := collect(t, l2, 1)
	if len(got) != 1 || string(got[0].Payload) != "first" {
		t.Fatalf("replay after repair = %+v, want just the first record", got)
	}
	if lsn, err := l2.Append(1, []byte("second")); err != nil || lsn != 2 {
		t.Fatalf("Append after repair = %d, %v; want LSN 2", lsn, err)
	}
}

func TestOpenFsyncsInheritedTail(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncNever})
	if _, err := l.Append(1, []byte("maybe-only-in-page-cache")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Reopen: the previous process may never have fsynced the tail it
	// left behind, so Open must issue one before counting it as synced.
	l2 := openT(t, dir, Options{Sync: SyncInterval, SyncInterval: time.Hour})
	defer l2.Close()
	st := l2.Stats()
	if st.Fsyncs < 1 {
		t.Fatalf("Open issued %d fsyncs over an inherited tail, want >= 1", st.Fsyncs)
	}
	if st.SyncedLSN != st.LastLSN {
		t.Fatalf("synced LSN %d != last LSN %d after Open's sync", st.SyncedLSN, st.LastLSN)
	}
}

func TestMidLogCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if _, err := l.Append(1, bytes.Repeat([]byte("p"), 50)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _ := listSegments(dir)
	data, _ := os.ReadFile(segs[0].path)
	// Flip one payload byte in the SECOND record: full bytes present,
	// CRC mismatch, valid records after it — corruption, not a torn tail.
	off := frameHeaderSize + 50 + frameHeaderSize + 10
	data[off] ^= 0xff
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on corrupt log: %v, want ErrCorrupt", err)
	}
}

func TestCorruptionInEarlierSegmentRefusedOnReplay(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentBytes: 128})
	for i := 0; i < 10; i++ {
		if _, err := l.Append(1, bytes.Repeat([]byte("q"), 40)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().Segments < 2 {
		t.Fatal("test needs multiple segments")
	}
	l.Close()
	segs, _ := listSegments(dir)
	data, _ := os.ReadFile(segs[0].path)
	data[frameHeaderSize+3] ^= 0x55 // corrupt first segment's first record
	os.WriteFile(segs[0].path, data, 0o644)
	// Open scans only the tail segment, so it succeeds...
	l2 := openT(t, dir, Options{})
	defer l2.Close()
	// ...but replay must refuse the log rather than skip the damage.
	_, err := l2.Replay(1, func(Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay over corrupt segment: %v, want ErrCorrupt", err)
	}
}

func TestGroupCommitBatchesFsyncs(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncAlways})
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := l.Append(1, []byte("commit")); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Appends != writers*perWriter {
		t.Fatalf("appends = %d, want %d", st.Appends, writers*perWriter)
	}
	if st.SyncedLSN != uint64(writers*perWriter) {
		t.Fatalf("synced LSN = %d, want %d (every commit durable)", st.SyncedLSN, writers*perWriter)
	}
	if st.Fsyncs > st.SyncWaits {
		t.Fatalf("fsyncs %d > commits %d: group commit never batched", st.Fsyncs, st.SyncWaits)
	}
	t.Logf("group commit: %d commits in %d fsyncs (%.1f per fsync)",
		st.SyncWaits, st.Fsyncs, float64(st.SyncWaits)/float64(st.Fsyncs))
	l.Close()
}

func TestSyncIntervalEventuallyDurable(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncInterval, SyncInterval: 5 * time.Millisecond})
	lsn, err := l.Append(1, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for l.Stats().SyncedLSN < lsn {
		if time.Now().After(deadline) {
			t.Fatalf("interval flusher never synced LSN %d (synced %d)", lsn, l.Stats().SyncedLSN)
		}
		time.Sleep(time.Millisecond)
	}
	l.Close()
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	l.Close()
	if _, err := l.Append(1, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close: %v, want ErrClosed", err)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, ok := range []string{"always", "Interval", "NEVER"} {
		if _, err := ParsePolicy(ok); err != nil {
			t.Errorf("ParsePolicy(%q): %v", ok, err)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Error("ParsePolicy accepted garbage")
	}
}

func TestSegmentNameRoundTrip(t *testing.T) {
	for _, lsn := range []uint64{1, 42, 1 << 40} {
		n, ok := parseSegmentName(segmentName(lsn))
		if !ok || n != lsn {
			t.Fatalf("segment name round trip failed for %d: %d %v", lsn, n, ok)
		}
	}
	if _, ok := parseSegmentName("snapshot.xos"); ok {
		t.Fatal("parseSegmentName accepted a non-segment name")
	}
	if _, ok := parseSegmentName(filepath.Base("00000000000000000001.tmp")); ok {
		t.Fatal("parseSegmentName accepted wrong extension")
	}
}
