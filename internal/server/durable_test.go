package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"xmlordb"
	"xmlordb/internal/client"
	"xmlordb/internal/wal"
	"xmlordb/internal/wire"
)

// durableCfg returns a server config hosting durable stores under dir.
func durableCfg(dir string) Config {
	return Config{SnapshotDir: dir, Durability: "always"}
}

func TestDurableServerRecoversUncheckpointedCommits(t *testing.T) {
	dir := t.TempDir()
	// Write commits straight into a durable store directory and close it
	// WITHOUT a checkpoint — exactly the on-disk state a crash leaves.
	st, err := xmlordb.OpenDir(filepath.Join(dir, "uni"), uniDTD, "University",
		xmlordb.Config{}, xmlordb.DurableOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadXML(uniDoc("Conrad", 1), "d1.xml"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadXML(uniDoc("Kudrass", 2), "d2.xml"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	srv := New(durableCfg(dir))
	n, err := srv.RestoreDir()
	if err != nil || n != 1 {
		t.Fatalf("RestoreDir = %d, %v", n, err)
	}
	_, addr := serveOn(t, srv)
	c := mustDial(t, addr)
	ctx := context.Background()
	res, err := c.Query(ctx, countStudentsSQL)
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("recovered rows = %v, %v", res, err)
	}
	stats, err := c.Stats(ctx)
	if err != nil || len(stats.StoreStats) != 1 {
		t.Fatalf("Stats: %v %v", stats, err)
	}
	ss := stats.StoreStats[0]
	if !ss.Durable || ss.WALReplayed != 2 {
		t.Fatalf("store stats = %+v, want durable with 2 replayed records", ss)
	}
	// New writes keep flowing to the WAL.
	if _, err := c.Load(ctx, "d3.xml", uniDoc("Jaeger", 3)); err != nil {
		t.Fatal(err)
	}
	stats, _ = c.Stats(ctx)
	if got := stats.StoreStats[0].WALRecords; got < 1 {
		t.Fatalf("WALRecords = %d after a load, want >= 1", got)
	}
}

func TestDurableServerOpenStoreAndSaveCheckpoints(t *testing.T) {
	dir := t.TempDir()
	srv := New(durableCfg(dir))
	_, addr := serveOn(t, srv)
	c := mustDial(t, addr)
	ctx := context.Background()
	if err := c.OpenStore(ctx, "uni", uniDTD, "University"); err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	if _, err := c.Load(ctx, "d1.xml", uniDoc("Conrad", 1)); err != nil {
		t.Fatal(err)
	}
	// SAVE becomes a checkpoint for durable stores.
	if err := c.Save(ctx); err != nil {
		t.Fatalf("Save: %v", err)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ss := stats.StoreStats[0]
	if !ss.Durable || ss.WALCheckpointLSN == 0 {
		t.Fatalf("after SAVE: %+v, want a non-zero checkpoint LSN", ss)
	}
	if _, err := os.Stat(filepath.Join(dir, "uni", "CHECKPOINT")); err != nil {
		t.Fatalf("durable directory missing CHECKPOINT: %v", err)
	}
}

// A whole-file snapshot from a pre-WAL deployment is refused by name at
// boot: hosting nothing for it would silently drop the store.
func TestServerRefusesLegacySnapshotFile(t *testing.T) {
	dir := t.TempDir()
	st, err := xmlordb.Open(uniDTD, "University", xmlordb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadXML(uniDoc("Conrad", 1), "old.xml"); err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, "uni.xos")
	f, err := os.Create(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for _, cfg := range []Config{durableCfg(dir), {SnapshotDir: dir}} {
		n, err := New(cfg).RestoreDir()
		if err == nil || !strings.Contains(err.Error(), legacy) {
			t.Errorf("RestoreDir(%+v) = %d, %v; want an error naming %s", cfg, n, err, legacy)
		}
	}
	if _, err := os.Stat(legacy); err != nil {
		t.Errorf("refusal must leave the file alone: %v", err)
	}
}

// Durability names only the WAL sync policy of a data directory.
func TestDurabilityConfigValidation(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string // substring of the error; "" = accepted
	}{
		{Config{}, ""},
		{Config{SnapshotDir: t.TempDir()}, ""}, // default policy: always
		{Config{SnapshotDir: t.TempDir(), Durability: "interval"}, ""},
		{Config{SnapshotDir: t.TempDir(), Durability: "snapshot"}, `durability "snapshot"`},
		{Config{Durability: "never"}, "needs a snapshot directory"},
		{Config{SnapshotDir: t.TempDir(), Durability: "sometimes"}, "unknown sync policy"},
	}
	for _, c := range cases {
		srv := New(c.cfg)
		_, rerr := srv.RestoreDir()
		oerr := srv.OpenStore("uni", uniDTD, "University", xmlordb.Config{})
		for verb, err := range map[string]error{"RestoreDir": rerr, "OpenStore": oerr} {
			switch {
			case c.want == "" && err != nil:
				t.Errorf("%s with %+v: %v", verb, c.cfg, err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Errorf("%s with %+v = %v, want error containing %q", verb, c.cfg, err, c.want)
			}
		}
		if c.want != "" && len(srv.StoreNames()) != 0 {
			t.Errorf("rejected config %+v still hosts %v", c.cfg, srv.StoreNames())
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		srv.Shutdown(ctx)
		cancel()
	}
}

// A server with a data directory checkpoints on SAVE, which an in-memory
// store cannot do: AddStore must refuse it rather than fail every SAVE.
func TestAddStoreRejectsInMemoryStoreOnDurableServer(t *testing.T) {
	st, err := xmlordb.Open(uniDTD, "University", xmlordb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{SnapshotDir: t.TempDir()})
	if err := srv.AddStore("uni", st); err == nil || !strings.Contains(err.Error(), "in-memory") {
		t.Fatalf("AddStore(in-memory) on a durable server = %v, want refusal", err)
	}
	if len(srv.StoreNames()) != 0 {
		t.Errorf("refused store is hosted: %v", srv.StoreNames())
	}
	if err := New(Config{}).AddStore("uni", st); err != nil {
		t.Errorf("AddStore on an in-memory server: %v", err)
	}
}

// TestDurableServerReopenOfHostedStoreRefused guards the OPEN-twice
// hazard: re-opening the name of a live durable store must be refused
// up front, never reaching the store's directory — a second wal.Open on
// the live WAL could see an in-flight append as a torn tail and
// truncate acknowledged commits out from under the writer.
func TestDurableServerReopenOfHostedStoreRefused(t *testing.T) {
	dir := t.TempDir()
	srv := New(durableCfg(dir))
	ctx := context.Background()
	if err := srv.OpenStore("uni", uniDTD, "University", xmlordb.Config{}); err != nil {
		t.Fatal(err)
	}
	_, addr := serveOn(t, srv)
	c := mustDial(t, addr)
	// Bind explicitly: the raced opens below host a second store, which
	// removes the single-store default binding.
	if err := c.Use(ctx, "uni"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(ctx, "d1.xml", uniDoc("Conrad", 1)); err != nil {
		t.Fatal(err)
	}
	// The idempotent ensure-exists pattern: OPEN again, with traffic on
	// the store. It must fail cleanly, case-insensitively.
	for _, name := range []string{"uni", "UNI"} {
		if err := srv.OpenStore(name, uniDTD, "University", xmlordb.Config{}); err == nil {
			t.Fatalf("OpenStore(%q) on a hosted store succeeded", name)
		}
	}
	// Concurrent OPENs of one new name: exactly one may win; the losers
	// must not have opened the winner's directory.
	const racers = 8
	errs := make(chan error, racers)
	for i := 0; i < racers; i++ {
		go func() {
			errs <- srv.OpenStore("raced", uniDTD, "University", xmlordb.Config{})
		}()
	}
	wins := 0
	for i := 0; i < racers; i++ {
		if <-errs == nil {
			wins++
		}
	}
	if wins != 1 {
		t.Fatalf("%d concurrent OpenStores of one name succeeded, want exactly 1", wins)
	}
	// The original store is intact: its commits survive a restart.
	if _, err := c.Load(ctx, "d2.xml", uniDoc("Kudrass", 2)); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	srv.Shutdown(cctx)
	cancel()
	srv2 := New(durableCfg(dir))
	if n, err := srv2.RestoreDir(); err != nil || n != 2 {
		t.Fatalf("RestoreDir = %d, %v; want uni and raced", n, err)
	}
	_, addr2 := serveOn(t, srv2)
	c2 := mustDial(t, addr2)
	if err := c2.Use(ctx, "uni"); err != nil {
		t.Fatal(err)
	}
	res, err := c2.Query(ctx, countStudentsSQL)
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("rows after restart = %v, %v", res, err)
	}
}

func TestDurableServerRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	srv := New(durableCfg(dir))
	ctx := context.Background()
	if err := srv.OpenStore("uni", uniDTD, "University", xmlordb.Config{}); err != nil {
		t.Fatal(err)
	}
	_, addr := serveOn(t, srv)
	c := mustDial(t, addr)
	// One autocommit load and one explicit transaction.
	if _, err := c.Load(ctx, "d1.xml", uniDoc("Conrad", 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(ctx, "d2.xml", uniDoc("Kudrass", 2)); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	srv.Shutdown(cctx)
	cancel()

	srv2 := New(durableCfg(dir))
	if n, err := srv2.RestoreDir(); err != nil || n != 1 {
		t.Fatalf("RestoreDir after restart = %d, %v", n, err)
	}
	_, addr2 := serveOn(t, srv2)
	c2 := mustDial(t, addr2)
	res, err := c2.Query(ctx, countStudentsSQL)
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("rows after restart = %v, %v", res, err)
	}
}

// copyTree copies a directory tree — here a durable store directory while
// its server still runs, i.e. the image a kill -9 would leave.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentLoadsShareOneWriter: LOAD prepares (parse, validate,
// shred) outside the store's writer lock and applies inside it, so eight
// sessions loading at once interleave their prepares with each other's
// apply + fsync. The serial part must still hand out unique, gapless
// DocIDs, the WAL must hold the load records in DocID order (replay
// re-derives each ID from the rows before it), and recovery from the
// on-disk image must reproduce every acknowledged document.
func TestConcurrentLoadsShareOneWriter(t *testing.T) {
	dir := t.TempDir()
	_, addr := startServer(t, durableCfg(dir))
	ctx := context.Background()
	const sessions, perSession = 8, 50
	ids := make([][]int, sessions)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		c := mustDial(t, addr)
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSession; i++ {
				id, err := c.Load(ctx, fmt.Sprintf("s%d-d%d.xml", s, i), uniDoc(fmt.Sprintf("S%dD%d", s, i), s*1000+i))
				if err != nil {
					t.Errorf("session %d load %d: %v", s, i, err)
					return
				}
				ids[s] = append(ids[s], id)
			}
		}(s)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	lname := map[int]string{}
	for s := range ids {
		for i, id := range ids[s] {
			if prev, dup := lname[id]; dup {
				t.Fatalf("DocID %d acknowledged twice (%s and S%dD%d)", id, prev, s, i)
			}
			lname[id] = fmt.Sprintf("S%dD%d", s, i)
		}
	}
	for id := 1; id <= sessions*perSession; id++ {
		if _, ok := lname[id]; !ok {
			t.Fatalf("DocIDs are not gapless: %d missing among %d documents", id, len(lname))
		}
	}

	image := filepath.Join(t.TempDir(), "uni")
	copyTree(t, filepath.Join(dir, "uni"), image)
	next := 1
	if _, err := xmlordb.ScanWAL(image, func(lsn uint64, typ byte, commit bool, summary string) {
		var id int
		if typ != xmlordb.RecLoad {
			t.Errorf("lsn %d: unexpected record %s", lsn, summary)
		} else if _, err := fmt.Sscanf(summary, "LOAD doc %d", &id); err != nil || id != next {
			t.Errorf("lsn %d: %s, want the load of document %d (log order = DocID order)", lsn, summary, next)
		}
		next++
	}); err != nil {
		t.Fatalf("ScanWAL: %v", err)
	}
	if next-1 != sessions*perSession {
		t.Fatalf("log holds %d load records, want %d", next-1, sessions*perSession)
	}
	st, err := xmlordb.LoadStoreDir(image, xmlordb.DurableOptions{})
	if err != nil {
		t.Fatalf("recovering the image: %v", err)
	}
	defer st.Close()
	for id, want := range lname {
		got, err := st.RetrieveXML(id)
		if err != nil || !strings.Contains(got, "<LName>"+want+"</LName>") {
			t.Fatalf("recovered document %d: %v, want student %s in\n%s", id, err, want, got)
		}
	}
}

// TestUnloadableDocumentNeverQueuesOnTheWriter: a document that fails to
// parse or validate is refused by LOAD's prepare half, before the writer
// lock — so it gets its own error at once even while another session
// sits in an open transaction holding that lock.
func TestUnloadableDocumentNeverQueuesOnTheWriter(t *testing.T) {
	_, addr := startServer(t, durableCfg(t.TempDir()))
	ctx := context.Background()
	holder := mustDial(t, addr)
	if err := holder.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := holder.Load(ctx, "held.xml", uniDoc("Held", 1)); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr, client.WithTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for name, doc := range map[string]string{
		"malformed": `<University><StudyCourse>CS</StudyCourse><Student>`,
		"invalid":   `<University><Student StudNr="1"><LName>NoCourse</LName></Student></University>`,
	} {
		_, err := c.Load(ctx, name+".xml", doc)
		var se *wire.ServerError
		if !errors.As(err, &se) || se.Code != wire.CodeEngine {
			t.Fatalf("%s document while another session holds BEGIN: %v, want the document's own engine error", name, err)
		}
	}
	// The lock was never needed, and the holder's transaction is intact.
	if err := holder.Commit(ctx); err != nil {
		t.Fatalf("holder commit: %v", err)
	}
	if id, err := c.Load(ctx, "after.xml", uniDoc("After", 2)); err != nil || id != 2 {
		t.Fatalf("load after the holder committed: id %d, %v", id, err)
	}
}
