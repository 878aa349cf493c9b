package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"xmlordb"
	"xmlordb/internal/client"
	"xmlordb/internal/wire"
)

// uniDTD is the Appendix A university DTD (declarations only).
const uniDTD = `
<!ELEMENT University (StudyCourse,Student*)>
<!ELEMENT Student (LName,FName,Course*)>
<!ATTLIST Student StudNr CDATA #REQUIRED>
<!ELEMENT Course (Name,Professor*,CreditPts?)>
<!ELEMENT Professor (PName,Subject+,Dept)>
<!ELEMENT LName (#PCDATA)>
<!ELEMENT FName (#PCDATA)>
<!ELEMENT Name (#PCDATA)>
<!ELEMENT PName (#PCDATA)>
<!ELEMENT Subject (#PCDATA)>
<!ELEMENT Dept (#PCDATA)>
<!ELEMENT StudyCourse (#PCDATA)>
<!ELEMENT CreditPts (#PCDATA)>
`

// uniDoc renders a small valid document with a distinguishable student.
func uniDoc(lname string, studNr int) string {
	return fmt.Sprintf(`<?xml version="1.0" encoding="UTF-8"?>
<University>
  <StudyCourse>Computer Science</StudyCourse>
  <Student StudNr="%d">
    <LName>%s</LName><FName>F</FName>
    <Course><Name>CAD Intro</Name><CreditPts>4</CreditPts></Course>
  </Student>
</University>`, studNr, lname)
}

const countStudentsSQL = `SELECT st.attrLName FROM TabUniversity u, TABLE(u.attrStudent) st`

// startServer boots a server hosting one "uni" store — in memory, or a
// durable directory when cfg has a SnapshotDir — on a loopback listener
// and returns it with its address. Shutdown runs in cleanup (tolerating
// tests that already shut down).
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv := New(cfg)
	if err := srv.OpenStore("uni", uniDTD, "University", xmlordb.Config{}); err != nil {
		t.Fatal(err)
	}
	return serveOn(t, srv)
}

func serveOn(t *testing.T, srv *Server) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Serve: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("Serve did not return after Shutdown")
		}
	})
	return srv, ln.Addr().String()
}

func mustDial(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, client.WithTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServerEndToEnd(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := mustDial(t, addr)
	ctx := context.Background()

	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	stores, err := c.Stores(ctx)
	if err != nil || len(stores) != 1 || stores[0] != "uni" {
		t.Fatalf("Stores = %v, %v", stores, err)
	}
	id, err := c.Load(ctx, "doc1.xml", uniDoc("Conrad", 23374))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	res, err := c.Query(ctx, countStudentsSQL)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "Conrad" {
		t.Fatalf("Query rows = %v", res.Rows)
	}
	xp, err := c.XPath(ctx, `/University/Student/LName`)
	if err != nil {
		t.Fatalf("XPath: %v", err)
	}
	if len(xp.Rows) != 1 || xp.SQL == "" {
		t.Fatalf("XPath = %+v", xp)
	}
	xmlText, err := c.Retrieve(ctx, id)
	if err != nil {
		t.Fatalf("Retrieve: %v", err)
	}
	for _, want := range []string{"<LName>Conrad</LName>", `StudNr="23374"`} {
		if !strings.Contains(xmlText, want) {
			t.Errorf("retrieved XML missing %q:\n%s", want, xmlText)
		}
	}
	if err := c.Delete(ctx, id); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := c.Retrieve(ctx, id); err == nil {
		t.Fatal("Retrieve after Delete succeeded")
	}
	// Typed error mapping.
	var se *wire.ServerError
	_, err = c.Retrieve(ctx, 9999)
	if !errors.As(err, &se) || se.Code != wire.CodeEngine {
		t.Fatalf("Retrieve(9999) err = %v", err)
	}
}

func TestServerTransactionsPerSession(t *testing.T) {
	_, addr := startServer(t, Config{})
	a := mustDial(t, addr)
	b := mustDial(t, addr)
	ctx := context.Background()

	if err := a.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	idA, err := a.Load(ctx, "a.xml", uniDoc("InTx", 1))
	if err != nil {
		t.Fatalf("Load in tx: %v", err)
	}
	// The transaction owner sees its own uncommitted write.
	res, err := a.Query(ctx, countStudentsSQL)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("owner read in tx: %v, %v", res, err)
	}
	// Another session's write waits for the lock; its read of committed
	// state must not be blocked by... reads DO wait here? No: reads take
	// RLock, the tx holds the write lock, so B's query waits until the
	// tx ends. Verify instead that B's query completes once A rolls back
	// and observes no trace of A's load.
	bDone := make(chan struct{})
	var bRows int
	var bErr error
	go func() {
		defer close(bDone)
		r, err := b.Query(ctx, countStudentsSQL)
		if err != nil {
			bErr = err
			return
		}
		bRows = len(r.Rows)
	}()
	time.Sleep(50 * time.Millisecond) // let B block on the store lock
	if err := a.Rollback(ctx); err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	<-bDone
	if bErr != nil {
		t.Fatalf("B query: %v", bErr)
	}
	if bRows != 0 {
		t.Fatalf("B saw %d rows after A's rollback, want 0", bRows)
	}
	if _, err := a.Retrieve(ctx, idA); err == nil {
		t.Fatal("rolled-back document still retrievable")
	}

	// Commit path.
	if err := a.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	idC, err := a.Load(ctx, "c.xml", uniDoc("Committed", 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(ctx); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	xmlText, err := b.Retrieve(ctx, idC)
	if err != nil || !strings.Contains(xmlText, "Committed") {
		t.Fatalf("B retrieve committed doc: %v, %v", err, xmlText)
	}

	// Transaction-control errors.
	if err := a.Commit(ctx); err == nil {
		t.Fatal("Commit without tx succeeded")
	}
	if err := a.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	if err := a.Begin(ctx); err == nil {
		t.Fatal("nested Begin succeeded")
	}
	if err := a.Rollback(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestServerConcurrentClients is the acceptance-criteria test: >= 8
// concurrent client goroutines mixing LOAD / SQL / RETRIEVE /
// transactions against one store, run under -race in CI.
func TestServerConcurrentClients(t *testing.T) {
	srv, addr := startServer(t, Config{})
	ctx := context.Background()

	const loaders, txers, readers = 4, 3, 3 // 10 concurrent sessions
	var wg sync.WaitGroup
	committed := make(chan int, loaders+txers)

	for i := 0; i < loaders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			id, err := c.Load(ctx, fmt.Sprintf("load-%d.xml", i), uniDoc(fmt.Sprintf("Loader%d", i), 100+i))
			if err != nil {
				t.Errorf("loader %d: %v", i, err)
				return
			}
			committed <- id
			xmlText, err := c.Retrieve(ctx, id)
			if err != nil || !strings.Contains(xmlText, fmt.Sprintf("Loader%d", i)) {
				t.Errorf("loader %d retrieve: %v", i, err)
			}
		}(i)
	}
	for i := 0; i < txers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			// One rolled-back load, then one committed load.
			if err := c.Begin(ctx); err != nil {
				t.Errorf("txer %d begin: %v", i, err)
				return
			}
			if _, err := c.Load(ctx, "discard.xml", uniDoc(fmt.Sprintf("Discard%d", i), 200+i)); err != nil {
				t.Errorf("txer %d load: %v", i, err)
				c.Rollback(ctx)
				return
			}
			if err := c.Rollback(ctx); err != nil {
				t.Errorf("txer %d rollback: %v", i, err)
				return
			}
			if err := c.Begin(ctx); err != nil {
				t.Errorf("txer %d begin2: %v", i, err)
				return
			}
			id, err := c.Load(ctx, fmt.Sprintf("tx-%d.xml", i), uniDoc(fmt.Sprintf("Txer%d", i), 300+i))
			if err != nil {
				t.Errorf("txer %d load2: %v", i, err)
				c.Rollback(ctx)
				return
			}
			if err := c.Commit(ctx); err != nil {
				t.Errorf("txer %d commit: %v", i, err)
				return
			}
			committed <- id
		}(i)
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				if _, err := c.Query(ctx, countStudentsSQL); err != nil {
					t.Errorf("reader %d: %v", i, err)
					return
				}
				if j%5 == 0 {
					if _, err := c.Stats(ctx); err != nil {
						t.Errorf("reader %d stats: %v", i, err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(committed)

	// Every committed document is present and retrievable; no rolled-back
	// document leaked.
	c := mustDial(t, addr)
	res, err := c.Query(ctx, countStudentsSQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != loaders+txers {
		t.Fatalf("student rows = %d, want %d", len(res.Rows), loaders+txers)
	}
	for _, row := range res.Rows {
		if s, _ := row[0].(string); strings.HasPrefix(s, "Discard") {
			t.Fatalf("rolled-back document leaked: %v", s)
		}
	}
	ids := 0
	for id := range committed {
		ids++
		if _, err := c.Retrieve(ctx, id); err != nil {
			t.Errorf("retrieve %d: %v", id, err)
		}
	}
	if ids != loaders+txers {
		t.Fatalf("committed ids = %d", ids)
	}

	// All per-test sessions closed; only the checker client remains.
	waitFor(t, time.Second, func() bool { return srv.SessionCount() == 1 })
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.SessionsTotal < loaders+txers+readers {
		t.Errorf("SessionsTotal = %d", st.SessionsTotal)
	}
	var loadCount int64
	for _, v := range st.Verbs {
		if v.Verb == wire.VerbLoad {
			loadCount = v.Count
			if v.TotalNanos <= 0 {
				t.Errorf("LOAD latency sum = %d", v.TotalNanos)
			}
		}
	}
	if loadCount < int64(loaders+2*txers) {
		t.Errorf("LOAD count = %d", loadCount)
	}
}

// TestServerGracefulShutdown verifies the drain contract: in-flight
// requests complete and get their responses, idle sessions (including
// one parked in an open transaction) are closed with the transaction
// rolled back, and new connections are refused.
func TestServerGracefulShutdown(t *testing.T) {
	srv, addr := startServer(t, Config{})
	ctx := context.Background()

	a := mustDial(t, addr)
	if err := a.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	// B's load will block on the store write lock held by A's transaction,
	// so it is in-flight when the drain starts.
	b := mustDial(t, addr)
	type loadResult struct {
		id  int
		err error
	}
	bDone := make(chan loadResult, 1)
	go func() {
		id, err := b.Load(ctx, "inflight.xml", uniDoc("InFlight", 7))
		bDone <- loadResult{id, err}
	}()
	// Wait until the server has read B's request (B is busy).
	waitFor(t, 2*time.Second, func() bool {
		st := srv.statsPayload()
		for _, v := range st.Verbs {
			if v.Verb == wire.VerbLoad {
				return true
			}
		}
		return srv.metrics.sessionsOpen.Load() >= 2 // both connected; LOAD not yet counted until done
	})
	time.Sleep(50 * time.Millisecond)

	shutDone := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutDone <- srv.Shutdown(sctx)
	}()

	// New connections are refused while draining: the listener is closed,
	// so dialing fails outright.
	waitFor(t, 2*time.Second, func() bool {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err != nil {
			return true
		}
		conn.Close()
		return false
	})

	// The in-flight load completes with a real response: A's idle session
	// was drained, its transaction rolled back, the lock released.
	res := <-bDone
	if res.err != nil {
		t.Fatalf("in-flight load failed during drain: %v", res.err)
	}
	if res.id <= 0 {
		t.Fatalf("in-flight load id = %d", res.id)
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if n := srv.SessionCount(); n != 0 {
		t.Fatalf("sessions after shutdown = %d", n)
	}
	// A's transaction was rolled back, not committed: its session died
	// holding only BEGIN.
	if err := a.Ping(ctx); err == nil {
		t.Fatal("ping succeeded after shutdown")
	}
}

// TestServerMidRequestDisconnect sends partial and oversized frames and
// kills connections mid-transaction; the server must neither leak
// sessions nor hold store locks.
func TestServerMidRequestDisconnect(t *testing.T) {
	srv, addr := startServer(t, Config{MaxRequestBytes: 4096})
	ctx := context.Background()

	// Half a frame, then disconnect.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, `{"verb":"LO`)
	conn.Close()

	// A connection that dies while holding a transaction (the store
	// write lock) must release it.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(raw, `{"verb":"BEGIN"}`+"\n")
	br := bufio.NewReader(raw)
	if line, err := wire.ReadFrame(br, 0); err != nil {
		t.Fatal(err)
	} else if resp, _ := wire.DecodeResponse(line); resp == nil || !resp.OK {
		t.Fatalf("BEGIN over raw conn: %v", line)
	}
	raw.Close() // dies holding the write lock

	// Oversized frame: one error response, then the connection closes.
	big, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(big, `{"verb":"LOAD","xml":"%s"}`+"\n", strings.Repeat("a", 8192))
	bigBr := bufio.NewReader(big)
	line, err := wire.ReadFrame(bigBr, 0)
	if err != nil {
		t.Fatalf("no response to oversized frame: %v", err)
	}
	resp, err := wire.DecodeResponse(line)
	if err != nil || resp.OK || resp.Code != wire.CodeTooLarge {
		t.Fatalf("oversized frame response = %+v, %v", resp, err)
	}
	if _, err := wire.ReadFrame(bigBr, 0); err == nil {
		t.Fatal("connection stayed open after oversized frame")
	}
	big.Close()

	// Malformed frame: bad_request response, then close.
	mal, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(mal, "this is not json\n")
	malBr := bufio.NewReader(mal)
	line, err = wire.ReadFrame(malBr, 0)
	if err != nil {
		t.Fatalf("no response to malformed frame: %v", err)
	}
	resp, err = wire.DecodeResponse(line)
	if err != nil || resp.OK || resp.Code != wire.CodeBadRequest {
		t.Fatalf("malformed frame response = %+v, %v", resp, err)
	}
	if _, err := wire.ReadFrame(malBr, 0); err == nil {
		t.Fatal("connection stayed open after malformed frame")
	}
	mal.Close()

	// The write lock released by the dead BEGIN session: a normal load
	// must go through, and no session leaked.
	c := mustDial(t, addr)
	loaded := make(chan error, 1)
	go func() {
		_, err := c.Load(ctx, "after.xml", uniDoc("AfterCrash", 9))
		loaded <- err
	}()
	select {
	case err := <-loaded:
		if err != nil {
			t.Fatalf("load after dead tx session: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("load blocked: dead session still holds the store write lock")
	}
	waitFor(t, 2*time.Second, func() bool { return srv.SessionCount() == 1 })
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Oversized < 1 {
		t.Errorf("Oversized = %d, want >= 1", st.Oversized)
	}
}

// TestServerSnapshotRestart loads documents, checkpoints them, loads one
// more, abandons the server without a clean shutdown (crash), and
// verifies a fresh server recovers all three — the checkpoint plus the
// logged tail — and serves queries, retrievals and new loads with
// non-colliding DocIDs.
func TestServerSnapshotRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	srv1, addr1 := startServer(t, Config{SnapshotDir: dir})
	c1 := mustDial(t, addr1)
	id1, err := c1.Load(ctx, "one.xml", uniDoc("Persist1", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Load(ctx, "two.xml", uniDoc("Persist2", 2)); err != nil {
		t.Fatal(err)
	}
	if err := c1.Save(ctx); err != nil {
		t.Fatalf("SAVE: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "uni", "CHECKPOINT")); err != nil {
		t.Fatalf("durable store directory: %v", err)
	}
	// Crash: load one more document after the checkpoint, then abandon the
	// server without Shutdown (cleanup will shut it down later). The load
	// was acknowledged, so the log holds it and recovery must replay it.
	if _, err := c1.Load(ctx, "tail.xml", uniDoc("Tail", 3)); err != nil {
		t.Fatal(err)
	}
	_ = srv1

	srv2 := New(Config{SnapshotDir: dir})
	n, err := srv2.RestoreDir()
	if err != nil {
		t.Fatalf("RestoreDir: %v", err)
	}
	if n != 1 {
		t.Fatalf("restored %d stores, want 1", n)
	}
	_, addr2 := serveOn(t, srv2)
	c2 := mustDial(t, addr2)
	res, err := c2.Query(ctx, countStudentsSQL)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, row := range res.Rows {
		names[fmt.Sprint(row[0])] = true
	}
	if !names["Persist1"] || !names["Persist2"] || !names["Tail"] {
		t.Fatalf("restored students = %v", names)
	}
	xmlText, err := c2.Retrieve(ctx, id1)
	if err != nil || !strings.Contains(xmlText, "Persist1") {
		t.Fatalf("retrieve after restore: %v", err)
	}
	// New loads get fresh DocIDs.
	id3, err := c2.Load(ctx, "three.xml", uniDoc("PostRestore", 4))
	if err != nil {
		t.Fatal(err)
	}
	if id3 == id1 {
		t.Fatalf("DocID collision after restore: %d", id3)
	}
}

// TestServerPeriodicSnapshot checks the background loop checkpoints dirty
// stores and a clean shutdown checkpoints remaining writes.
func TestServerPeriodicSnapshot(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	srv, addr := startServer(t, Config{SnapshotDir: dir, SnapshotInterval: 30 * time.Millisecond})
	c := mustDial(t, addr)
	if _, err := c.Load(ctx, "p.xml", uniDoc("Periodic", 1)); err != nil {
		t.Fatal(err)
	}
	// OpenStore already wrote the directory's first checkpoint; the loop's
	// own shows up in the counter.
	waitFor(t, 3*time.Second, func() bool {
		st, err := c.Stats(ctx)
		return err == nil && st.Snapshots >= 1
	})
	// Clean shutdown persists the tail write.
	if _, err := c.Load(ctx, "q.xml", uniDoc("Tail", 2)); err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	restored, err := xmlordb.LoadStoreDir(filepath.Join(dir, "uni"), xmlordb.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if ws, _ := restored.WALStats(); ws.Replayed != 0 {
		t.Errorf("clean shutdown left %d records to replay, want a covering checkpoint", ws.Replayed)
	}
	rows, err := restored.Query(countStudentsSQL)
	if err != nil || len(rows.Data) != 2 {
		t.Fatalf("restored rows = %v, %v", rows, err)
	}
}

// TestServerRequestTimeout: a request stuck behind a long-held write
// lock beyond RequestTimeout gets its connection closed, while the lock
// holder is unaffected.
func TestServerRequestTimeout(t *testing.T) {
	srv, addr := startServer(t, Config{RequestTimeout: 150 * time.Millisecond})
	ctx := context.Background()

	a := mustDial(t, addr)
	if err := a.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	b := mustDial(t, addr)
	_, err := b.Load(ctx, "blocked.xml", uniDoc("Blocked", 1))
	if err == nil {
		t.Fatal("load exceeding request timeout succeeded")
	}
	if err := a.Rollback(ctx); err != nil {
		t.Fatalf("lock holder affected by peer timeout: %v", err)
	}
	// B reconnects transparently on its next call.
	if _, err := b.Load(ctx, "after.xml", uniDoc("AfterTimeout", 2)); err != nil {
		t.Fatalf("load after timeout: %v", err)
	}
	if n := srv.metrics.timeouts.Load(); n < 1 {
		t.Errorf("timeouts = %d", n)
	}
}

func TestServerIdleTimeout(t *testing.T) {
	srv, addr := startServer(t, Config{IdleTimeout: 80 * time.Millisecond})
	c := mustDial(t, addr)
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return srv.SessionCount() == 0 })
}

func TestServerMultiStore(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := mustDial(t, addr)
	ctx := context.Background()

	if err := c.OpenStore(ctx, "memo", `<!ELEMENT Memo (#PCDATA)>`, "Memo"); err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	// OPEN binds the session to the new store.
	id, err := c.Load(ctx, "m.xml", `<Memo>hello</Memo>`)
	if err != nil {
		t.Fatalf("load into memo: %v", err)
	}
	xmlText, err := c.Retrieve(ctx, id)
	if err != nil || !strings.Contains(xmlText, "hello") {
		t.Fatalf("retrieve memo: %v %q", err, xmlText)
	}
	// Switch back and verify isolation.
	if err := c.Use(ctx, "uni"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(ctx, `SELECT m.attrPCDATA FROM TabMemo m`); err == nil {
		t.Fatal("memo table visible from uni store")
	}
	stores, err := c.Stores(ctx)
	if err != nil || len(stores) != 2 {
		t.Fatalf("Stores = %v, %v", stores, err)
	}
	// Ambiguity without USE on a fresh session is an error.
	c2 := mustDial(t, addr)
	var se *wire.ServerError
	if _, err := c2.Query(ctx, countStudentsSQL); !errors.As(err, &se) || se.Code != wire.CodeNoStore {
		t.Fatalf("unbound query err = %v", err)
	}
	if err := c2.Use(ctx, "uni"); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Query(ctx, countStudentsSQL); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRefusesUnknownBackend: the one row store is named "" or "mem";
// anything else fails at OPEN rather than being silently ignored.
func TestOpenRefusesUnknownBackend(t *testing.T) {
	for _, b := range []string{"", xmlordb.BackendMem} {
		if err := New(Config{Backend: b}).OpenStore("uni", uniDTD, "University", xmlordb.Config{}); err != nil {
			t.Errorf("backend %q: %v", b, err)
		}
	}
	err := New(Config{Backend: "btree"}).OpenStore("uni", uniDTD, "University", xmlordb.Config{})
	if err == nil || !strings.Contains(err.Error(), `"btree"`) {
		t.Errorf("backend btree: err = %v, want a refusal naming it", err)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not reached before timeout")
}
