package main

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xmlordb"
	"xmlordb/internal/server"
)

const uniDTD = `
<!ELEMENT University (StudyCourse,Student*)>
<!ELEMENT Student (LName,FName)>
<!ATTLIST Student StudNr CDATA #REQUIRED>
<!ELEMENT LName (#PCDATA)>
<!ELEMENT FName (#PCDATA)>
<!ELEMENT StudyCourse (#PCDATA)>
`

const uniDoc = `<University><StudyCourse>CS</StudyCourse><Student StudNr="1"><LName>Conrad</LName><FName>M</FName></Student></University>`

// startTestServer serves one in-memory store per name on loopback and
// returns the address.
func startTestServer(t *testing.T, names ...string) string {
	t.Helper()
	if len(names) == 0 {
		names = []string{"uni"}
	}
	srv := server.New(server.Config{})
	for _, name := range names {
		st, err := xmlordb.Open(uniDTD, "University", xmlordb.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.AddStore(name, st); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ln.Addr().String()
}

// writeFile writes text to name in a fresh temporary directory and
// returns the path.
func writeFile(t *testing.T, name, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// clientCLI runs `xmlordbd client -addr addr args...` in process.
func clientCLI(addr string) func(args ...string) (string, error) {
	return func(args ...string) (string, error) {
		var sb strings.Builder
		err := run(append([]string{"client", "-addr", addr}, args...), &sb)
		return sb.String(), err
	}
}

func TestCLIClientVerbs(t *testing.T) {
	addr := startTestServer(t)
	docFile := writeFile(t, "doc.xml", uniDoc)
	runCLI := clientCLI(addr)

	if out, err := runCLI("ping"); err != nil || !strings.Contains(out, "pong") {
		t.Fatalf("ping: %q, %v", out, err)
	}
	if out, err := runCLI("stores"); err != nil || !strings.Contains(out, "uni") {
		t.Fatalf("stores: %q, %v", out, err)
	}
	if out, err := runCLI("load", docFile); err != nil || !strings.Contains(out, "DocID 1") {
		t.Fatalf("load: %q, %v", out, err)
	}
	out, err := runCLI("sql", "SELECT st.attrLName FROM TabUniversity u, TABLE(u.attrStudent) st")
	if err != nil || !strings.Contains(out, "Conrad") || !strings.Contains(out, "(1 row(s))") {
		t.Fatalf("sql: %q, %v", out, err)
	}
	if out, err := runCLI("xpath", "/University/Student/LName"); err != nil || !strings.Contains(out, "Conrad") {
		t.Fatalf("xpath: %q, %v", out, err)
	}
	if out, err := runCLI("retrieve", "1"); err != nil || !strings.Contains(out, "<LName>Conrad</LName>") {
		t.Fatalf("retrieve: %q, %v", out, err)
	}
	if out, err := runCLI("stats"); err != nil || !strings.Contains(out, "store uni") {
		t.Fatalf("stats: %q, %v", out, err)
	}
	if out, err := runCLI("delete", "1"); err != nil || !strings.Contains(out, "deleted 1") {
		t.Fatalf("delete: %q, %v", out, err)
	}
	if _, err := runCLI("retrieve", "1"); err == nil {
		t.Fatal("retrieve after delete succeeded")
	}
	if _, err := runCLI("bogus"); err == nil {
		t.Fatal("unknown verb accepted")
	}
}

const lnamesSQL = "SELECT st.attrLName FROM TabUniversity u, TABLE(u.attrStudent) st"

// -store picks the store a one-shot client talks to on a server hosting
// several, where no store is the default.
func TestCLIClientStore(t *testing.T) {
	addr := startTestServer(t, "uni", "second")
	runCLI := clientCLI(addr)
	uniFile := writeFile(t, "uni.xml", uniDoc)
	secondFile := writeFile(t, "second.xml", strings.ReplaceAll(uniDoc, "Conrad", "Second"))
	if out, err := runCLI("-store", "uni", "load", uniFile); err != nil {
		t.Fatalf("load into uni: %q, %v", out, err)
	}
	if out, err := runCLI("-store", "second", "load", secondFile); err != nil {
		t.Fatalf("load into second: %q, %v", out, err)
	}

	out, err := runCLI("-store", "second", "sql", lnamesSQL)
	if err != nil || !strings.Contains(out, "Second") || strings.Contains(out, "Conrad") {
		t.Fatalf("sql on -store second: %q, %v", out, err)
	}
	if out, err := runCLI("sql", lnamesSQL); err == nil {
		t.Fatalf("sql without -store on a two-store server answered %q", out)
	}
	if _, err := runCLI("-store", "nosuch", "ping"); err == nil {
		t.Fatal("-store naming an unknown store accepted")
	}
}

// bulkload sends its files as one BULKLOAD request with the server's
// defaults: every document loads, or the first bad one fails the
// command by name.
func TestCLIBulkload(t *testing.T) {
	addr := startTestServer(t)
	runCLI := clientCLI(addr)
	a := writeFile(t, "a.xml", uniDoc)
	b := writeFile(t, "b.xml", strings.ReplaceAll(uniDoc, "Conrad", "Bulk"))

	out, err := runCLI("bulkload", a, b)
	if err != nil || !strings.Contains(out, "loaded 2, failed 0") {
		t.Fatalf("bulkload of two valid files: %q, %v", out, err)
	}
	if out, err := runCLI("sql", lnamesSQL); err != nil || !strings.Contains(out, "(2 row(s))") {
		t.Fatalf("after bulkload: %q, %v", out, err)
	}

	bad := writeFile(t, "bad.xml", `<University><Student StudNr="9"><LName>NoCourse</LName><FName>F</FName></Student></University>`)
	out, err = runCLI("bulkload", a, bad)
	if err == nil {
		t.Fatalf("bulkload with an invalid file succeeded: %q", out)
	}
	if !strings.Contains(out+err.Error(), bad) {
		t.Fatalf("bulkload failure does not name %s: %q, %v", bad, out, err)
	}
}

func TestCLIWALInspect(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "uni")
	st, err := xmlordb.OpenDir(storeDir, uniDTD, "University", xmlordb.Config{}, xmlordb.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadXML(uniDoc, "d1.xml"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	var info strings.Builder
	if err := run([]string{"wal", "info", storeDir}, &info); err != nil {
		t.Fatalf("wal info: %v", err)
	}
	if !strings.Contains(info.String(), "1 record(s)") {
		t.Fatalf("wal info output: %q", info.String())
	}
	var dump strings.Builder
	if err := run([]string{"wal", "dump", storeDir}, &dump); err != nil {
		t.Fatalf("wal dump: %v", err)
	}
	if !strings.Contains(dump.String(), "LOAD doc 1") {
		t.Fatalf("wal dump output: %q", dump.String())
	}
	if err := run([]string{"wal", "frob", storeDir}, &dump); err == nil {
		t.Fatal("unknown wal mode accepted")
	}
}

func TestCLIUsageErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err == nil {
		t.Fatal("missing subcommand accepted")
	}
	if err := run([]string{"frobnicate"}, &sb); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	if err := run([]string{"client", "-addr", "127.0.0.1:1"}, &sb); err == nil {
		t.Fatal("missing client verb accepted")
	}
}
