// Command xmlordbd serves one or more xmlordb document stores over the
// newline-delimited JSON wire protocol (internal/wire), and doubles as
// the wire client for scripting and interactive use.
//
// Usage:
//
//	xmlordbd serve  [flags]                  # run the server
//	xmlordbd client [flags] <verb> [args...] # one-shot wire client
//	xmlordbd repl   [flags]                  # interactive wire client
//	xmlordbd wal    info|dump <store-dir>    # inspect a durable store's WAL
//
// Every flag is passed by a test in this directory (a CI step checks
// it); session limits, read-wait, store-list refresh and the ingest
// worker default are server.Config fields with their defaults and no
// flag.
//
// Server flags:
//
//	-addr :7788             TCP listen address
//	-stats-addr addr        HTTP listener serving GET /stats (the STATS
//	                        payload as JSON); a bind failure fails startup
//	-dtd file.dtd           DTD to install as the initial store
//	-root name              root element for -dtd (default: unique candidate)
//	-name default           name of the initial store
//	-snapshot-dir dir       data directory: each store lives in a durable
//	                        directory <dir>/<name>/ (checkpoint snapshot +
//	                        write-ahead log), recovered on boot; without
//	                        it stores are in-memory only
//	-snapshot-interval 30s  period of the background checkpoint loop
//	-durability always      WAL sync policy for -snapshot-dir: "always"
//	                        (the default), "interval" or "never"
//	-wal-sync-interval 50ms background WAL flush period under "interval"
//	-wal-segment-bytes 0    WAL segment size cap before rotation (0 = 4MiB)
//	-replica-of addr        start as a read replica of the primary at addr
//	                        (requires -snapshot-dir); writes
//	                        are rejected until PROMOTE or election
//	-advertise addr         address peers dial to reach this server
//	                        (default: the bound listener address)
//	-election-timeout 0     enable automatic failover: a replica whose
//	                        upstream is silent this long holds an election;
//	                        a stale ex-primary demotes itself on rejoin
//	-lease-interval 0       heartbeat / failover poll cadence
//	                        (default election-timeout/4)
//	-repl-sync-acks 0       semi-sync: hold each write until this many
//	                        replicas durably ack it
//	-repl-sync-timeout 5s   semi-sync ack wait limit
//	-repl-heartbeat 1s      replication stream idle heartbeat
//	-repl-retry 500ms       replica reconnect backoff (exponential, 10s cap)
//
// The server drains gracefully on SIGINT/SIGTERM: new connections are
// refused, in-flight requests complete, dirty stores are checkpointed
// and WALs are closed.
//
// Client verbs:
//
//	ping | stores | stats | save | promote | position
//	open  <name> <dtd-file> [root]      install a store from a DTD
//	load  <doc.xml>...                  load documents, print DocIDs
//	bulkload <doc.xml>...               pipelined bulk ingest: one BULKLOAD
//	                                    request with the server's defaults
//	sql   <statement>                   run SQL (or read from stdin with -)
//	xpath <path>                        translate + run an XPath
//	retrieve <docid>                    print a reconstructed document
//	delete   <docid>                    delete a document
//
// Client flags: -addr, -store (target store name).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"xmlordb"
	"xmlordb/internal/client"
	"xmlordb/internal/server"
	"xmlordb/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "xmlordbd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand (serve|client|repl)")
	}
	switch args[0] {
	case "serve":
		return runServe(args[1:], out)
	case "client":
		return runClient(args[1:], out, false)
	case "repl":
		return runClient(args[1:], out, true)
	case "wal":
		return runWAL(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (serve|client|repl|wal)", args[0])
	}
}

func runServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":7788", "TCP listen address")
		statsAddr    = fs.String("stats-addr", "", "HTTP /stats listen address")
		dtdFile      = fs.String("dtd", "", "DTD file for the initial store")
		root         = fs.String("root", "", "root element for -dtd")
		name         = fs.String("name", "default", "name of the initial store")
		snapDir      = fs.String("snapshot-dir", "", "data directory: one durable directory (checkpoint + WAL) per store")
		snapInterval = fs.Duration("snapshot-interval", 30*time.Second, "checkpoint period")
		durability   = fs.String("durability", "", `WAL sync policy for -snapshot-dir: "always" (default), "interval" or "never"`)
		walSyncInt   = fs.Duration("wal-sync-interval", 0, `WAL flush period under -durability interval`)
		walSegBytes  = fs.Int64("wal-segment-bytes", 0, "WAL segment size cap before rotation (0 = default 4MiB)")
		replicaOf    = fs.String("replica-of", "", "primary address: start as a read replica")
		advertise    = fs.String("advertise", "", "address peers dial to reach this server (default: the bound listener address)")
		electionTO   = fs.Duration("election-timeout", 0, "enable automatic failover: hold an election when the primary's lease is silent this long (0 = manual PROMOTE only)")
		leaseInt     = fs.Duration("lease-interval", 0, "lease heartbeat / failover poll cadence (default election-timeout/4)")
		syncAcks     = fs.Int("repl-sync-acks", 0, "hold each write until this many replicas durably ack it (0 = async)")
		syncTimeout  = fs.Duration("repl-sync-timeout", 0, "semi-sync ack wait limit (default 5s)")
		replHB       = fs.Duration("repl-heartbeat", 0, "replication stream heartbeat interval")
		replRetry    = fs.Duration("repl-retry", 0, "replica reconnect backoff (doubles up to a 10s cap)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := server.Config{
		SnapshotDir:      *snapDir,
		SnapshotInterval: *snapInterval,
		Durability:       *durability,
		WALSyncInterval:  *walSyncInt,
		WALSegmentBytes:  *walSegBytes,
		StatsAddr:        *statsAddr,
		ReplicaOf:        *replicaOf,
		Advertise:        *advertise,
		ElectionTimeout:  *electionTO,
		LeaseInterval:    *leaseInt,
		ReplSyncAcks:     *syncAcks,
		ReplSyncTimeout:  *syncTimeout,
		ReplHeartbeat:    *replHB,
		ReplRetry:        *replRetry,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "xmlordbd: "+format+"\n", a...)
		},
	}
	srv := server.New(cfg)
	restored, err := srv.RestoreDir()
	if err != nil {
		return err
	}
	if restored > 0 {
		fmt.Fprintf(out, "restored %d store(s) from %s: %v\n", restored, *snapDir, srv.StoreNames())
	}
	if *dtdFile != "" && *replicaOf == "" {
		if hosted := srv.StoreNames(); !contains(hosted, *name) {
			dtdText, err := os.ReadFile(*dtdFile)
			if err != nil {
				return err
			}
			if err := srv.OpenStore(*name, string(dtdText), *root, xmlordb.Config{}); err != nil {
				return fmt.Errorf("opening store %s: %w", *name, err)
			}
			fmt.Fprintf(out, "installed store %q from %s\n", *name, *dtdFile)
		}
	}
	if err := srv.StartReplication(); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	// Wait until the listeners are bound so the addresses print truthfully.
	for srv.Addr() == nil {
		select {
		case err := <-errc:
			return err
		case <-time.After(5 * time.Millisecond):
		}
	}
	if a := srv.StatsAddr(); a != nil {
		fmt.Fprintf(out, "stats on %s (GET /stats)\n", a)
	}
	fmt.Fprintf(out, "listening on %s as %s (stores: %v)\n", srv.Addr(), srv.Role(), srv.StoreNames())

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		fmt.Fprintln(out, "draining...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		fmt.Fprintln(out, "bye")
		return nil
	}
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if strings.EqualFold(x, s) {
			return true
		}
	}
	return false
}

func runClient(args []string, out io.Writer, repl bool) error {
	fs := flag.NewFlagSet("client", flag.ContinueOnError)
	var (
		addr  = fs.String("addr", "127.0.0.1:7788", "server address")
		store = fs.String("store", "", "target store name")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := client.Dial(*addr)
	if err != nil {
		return err
	}
	defer c.Close()
	ctx := context.Background()
	if *store != "" {
		if err := c.Use(ctx, *store); err != nil {
			return err
		}
	}
	if repl {
		// `xmlordbd repl status` prints the replication status and exits
		// instead of entering the interactive loop.
		if rest := fs.Args(); len(rest) == 1 && strings.EqualFold(rest[0], "status") {
			st, err := c.Stats(ctx)
			if err != nil {
				return err
			}
			printReplStats(out, st.Repl)
			return nil
		}
		return runRepl(ctx, c, out)
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("missing client verb")
	}
	return clientVerb(ctx, c, rest, out)
}

func clientVerb(ctx context.Context, c *client.Client, args []string, out io.Writer) error {
	verb, rest := strings.ToLower(args[0]), args[1:]
	switch verb {
	case "ping":
		if err := c.Ping(ctx); err != nil {
			return err
		}
		fmt.Fprintln(out, "pong")
	case "stores":
		names, err := c.Stores(ctx)
		if err != nil {
			return err
		}
		for _, n := range names {
			fmt.Fprintln(out, n)
		}
	case "open":
		if len(rest) < 2 {
			return fmt.Errorf("usage: open <name> <dtd-file> [root]")
		}
		dtdText, err := os.ReadFile(rest[1])
		if err != nil {
			return err
		}
		root := ""
		if len(rest) > 2 {
			root = rest[2]
		}
		if err := c.OpenStore(ctx, rest[0], string(dtdText), root); err != nil {
			return err
		}
		fmt.Fprintf(out, "opened %s\n", rest[0])
	case "load":
		if len(rest) == 0 {
			return fmt.Errorf("usage: load <doc.xml>...")
		}
		for _, f := range rest {
			xmlText, err := os.ReadFile(f)
			if err != nil {
				return err
			}
			id, err := c.Load(ctx, f, string(xmlText))
			if err != nil {
				return fmt.Errorf("%s: %w", f, err)
			}
			fmt.Fprintf(out, "%s: DocID %d\n", f, id)
		}
	case "bulkload":
		if len(rest) == 0 {
			return fmt.Errorf("usage: bulkload <doc.xml>...")
		}
		docs := make([]wire.BulkDoc, len(rest))
		for i, f := range rest {
			xmlText, err := os.ReadFile(f)
			if err != nil {
				return err
			}
			docs[i] = wire.BulkDoc{Name: f, XML: string(xmlText)}
		}
		bulk, err := c.BulkLoad(ctx, docs, client.BulkOptions{})
		if bulk != nil {
			for _, dr := range bulk.Docs {
				if dr.Error != "" {
					fmt.Fprintf(out, "%s: error: %s\n", dr.Name, dr.Error)
				} else {
					fmt.Fprintf(out, "%s: DocID %d\n", dr.Name, dr.DocID)
				}
			}
			fmt.Fprintf(out, "loaded %d, failed %d\n", bulk.Loaded, bulk.Failed)
		}
		if err != nil {
			return err
		}
		if bulk != nil && bulk.Failed > 0 {
			return fmt.Errorf("%d of %d documents failed", bulk.Failed, bulk.Loaded+bulk.Failed)
		}
	case "sql":
		if len(rest) == 0 {
			return fmt.Errorf("usage: sql <statement> (or - for stdin)")
		}
		text := strings.Join(rest, " ")
		if text == "-" {
			data, err := io.ReadAll(os.Stdin)
			if err != nil {
				return err
			}
			text = string(data)
		}
		return runSQL(ctx, c, text, out)
	case "xpath":
		if len(rest) != 1 {
			return fmt.Errorf("usage: xpath <path>")
		}
		res, err := c.XPath(ctx, rest[0])
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "-- %s\n", res.SQL)
		printResult(out, res)
	case "retrieve":
		id, err := docIDArg(rest)
		if err != nil {
			return err
		}
		xmlText, err := c.Retrieve(ctx, id)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, xmlText)
	case "delete":
		id, err := docIDArg(rest)
		if err != nil {
			return err
		}
		if err := c.Delete(ctx, id); err != nil {
			return err
		}
		fmt.Fprintf(out, "deleted %d\n", id)
	case "stats":
		st, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		printStats(out, st)
	case "save":
		if err := c.Save(ctx); err != nil {
			return err
		}
		fmt.Fprintln(out, "saved")
	case "promote":
		role, lsn, err := c.Promote(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "promoted: role %s, lsn %d\n", role, lsn)
	case "position":
		resp, err := c.Position(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "role %s, epoch %d, durable lsn %d, primary %s, members %v\n",
			resp.Role, resp.Epoch, resp.LSN, resp.Primary, resp.Peers)
	case "begin":
		return c.Begin(ctx)
	case "commit":
		return c.Commit(ctx)
	case "rollback":
		return c.Rollback(ctx)
	default:
		return fmt.Errorf("unknown client verb %q", verb)
	}
	return nil
}

func docIDArg(rest []string) (int, error) {
	if len(rest) != 1 {
		return 0, fmt.Errorf("usage: <verb> <docid>")
	}
	id, err := strconv.Atoi(rest[0])
	if err != nil || id <= 0 {
		return 0, fmt.Errorf("bad docid %q", rest[0])
	}
	return id, nil
}

func runSQL(ctx context.Context, c *client.Client, text string, out io.Writer) error {
	upper := strings.ToUpper(strings.TrimSpace(text))
	if strings.HasPrefix(upper, "SELECT") || strings.HasPrefix(upper, "EXPLAIN") {
		res, err := c.Query(ctx, text)
		if err != nil {
			return err
		}
		printResult(out, res)
		return nil
	}
	n, err := c.Exec(ctx, text)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "ok (%d row(s) affected)\n", n)
	return nil
}

func printResult(out io.Writer, res *client.Result) {
	fmt.Fprintln(out, strings.Join(res.Cols, "\t"))
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			if v == nil {
				cells[i] = "NULL"
			} else {
				cells[i] = fmt.Sprint(v)
			}
		}
		fmt.Fprintln(out, strings.Join(cells, "\t"))
	}
	fmt.Fprintf(out, "(%d row(s))\n", len(res.Rows))
}

func printStats(out io.Writer, st *wire.Stats) {
	fmt.Fprintf(out, "sessions: %d open / %d total; snapshots: %d; timeouts: %d; oversized: %d\n",
		st.SessionsOpen, st.SessionsTotal, st.Snapshots, st.Timeouts, st.Oversized)
	for _, s := range st.StoreStats {
		fmt.Fprintf(out, "store %s: %d doc(s); parse %d/%d hit/miss; plan %d/%d; inserts %d; rows scanned %d; derefs %d; index probes %d\n",
			s.Name, s.Documents, s.ParseHits, s.ParseMisses, s.PlanHits, s.PlanMisses,
			s.Inserts, s.RowsScanned, s.Derefs, s.IndexProbes)
		if s.Durable {
			batch := float64(0)
			if s.WALFsyncs > 0 {
				batch = float64(s.WALCommits) / float64(s.WALFsyncs)
			}
			fmt.Fprintf(out, "  wal: %d record(s), %d bytes, %d commit(s) in %d fsync(s) (%.1f/fsync); replayed %d; lsn %d (checkpoint %d)\n",
				s.WALRecords, s.WALBytes, s.WALCommits, s.WALFsyncs, batch,
				s.WALReplayed, s.WALLastLSN, s.WALCheckpointLSN)
		}
		if s.IngestRuns > 0 {
			rate := float64(0)
			if s.IngestNanos > 0 {
				rate = float64(s.IngestDocs) / (float64(s.IngestNanos) / float64(time.Second))
			}
			fmt.Fprintf(out, "  ingest: %d run(s); %d doc(s) loaded, %d failed; %d batch(es); %d bytes; %.0f docs/s; last run %d worker(s)\n",
				s.IngestRuns, s.IngestDocs, s.IngestFailed, s.IngestBatches,
				s.IngestBytes, rate, s.IngestWorkers)
		}
	}
	for _, v := range st.Verbs {
		avg := time.Duration(0)
		if v.Count > 0 {
			avg = time.Duration(v.TotalNanos / v.Count)
		}
		fmt.Fprintf(out, "verb %-8s count %d errors %d avg %s\n", v.Verb, v.Count, v.Errors, avg)
	}
	if st.Repl != nil {
		printReplStats(out, st.Repl)
	}
}

// printReplStats renders the replication section of STATS: the server's
// role, and per-store applier lag (replica) or connected-replica
// registry (primary).
func printReplStats(out io.Writer, rs *wire.ReplStats) {
	if rs == nil {
		fmt.Fprintln(out, "replication: off (standalone primary)")
		return
	}
	if rs.Role == "replica" {
		fmt.Fprintf(out, "replication: replica of %s\n", rs.Primary)
		for _, s := range rs.Stores {
			state := "disconnected"
			if s.Connected {
				state = "connected"
			}
			fmt.Fprintf(out, "  store %s: %s; applied lsn %d / primary %d (%d behind); %d unit(s), %d bytes applied; %d snapshot(s); last frame %dms ago\n",
				s.Store, state, s.AppliedLSN, s.PrimaryLSN, s.LagRecords,
				s.UnitsApplied, s.BytesApplied, s.Snapshots, s.LastHeartbeatMS)
		}
		return
	}
	fmt.Fprintln(out, "replication: primary")
	for _, s := range rs.Stores {
		fmt.Fprintf(out, "  store %s: %d replica(s)\n", s.Store, len(s.Replicas))
		for _, r := range s.Replicas {
			snap := ""
			if r.SnapshotSent {
				snap = "; seeded by snapshot"
			}
			fmt.Fprintf(out, "    %s: acked lsn %d (%d behind); %d unit(s), %d bytes sent%s; last ack %dms ago\n",
				r.Addr, r.AckedLSN, r.LagRecords, r.SentUnits, r.SentBytes, snap, r.LastAckMS)
		}
	}
}

// runWAL inspects the write-ahead log of a durable store directory
// (the per-store subdirectory of -snapshot-dir). The store must not be
// in use by a running server.
func runWAL(args []string, out io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: wal info|dump <store-dir>")
	}
	mode, dir := strings.ToLower(args[0]), args[1]
	var dump func(lsn uint64, typ byte, commit bool, summary string)
	switch mode {
	case "info":
	case "dump":
		dump = func(lsn uint64, typ byte, commit bool, summary string) {
			// flags column: the frame's flag byte (bit 0 = commit, the
			// record that ends its commit unit).
			flags := byte(0)
			if commit {
				flags = 0x01
			}
			fmt.Fprintf(out, "%8d  %02x  %s\n", lsn, flags, summary)
		}
	default:
		return fmt.Errorf("unknown wal mode %q (info|dump)", mode)
	}
	info, err := xmlordb.ScanWAL(dir, dump)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "checkpoint lsn %d; %d record(s) in %d commit unit(s)", info.CheckpointLSN, info.Records, info.Units)
	if info.Records > 0 {
		fmt.Fprintf(out, " (lsn %d..%d)", info.FirstLSN, info.LastLSN)
	}
	fmt.Fprintf(out, "; %d segment(s)", info.Segments)
	if info.TruncatedTail {
		fmt.Fprint(out, "; torn tail truncated")
	}
	fmt.Fprintln(out)
	return nil
}

// runRepl reads commands from stdin: wire verbs with shell-ish args,
// plus bare SQL lines starting with SELECT/INSERT/... for convenience.
func runRepl(ctx context.Context, c *client.Client, out io.Writer) error {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	fmt.Fprintln(out, "xmlordbd repl — verbs: ping stores open load sql xpath retrieve delete begin commit rollback stats save quit")
	for {
		fmt.Fprint(out, "> ")
		if !sc.Scan() {
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		verb := strings.ToLower(fields[0])
		if verb == "quit" || verb == "exit" {
			return nil
		}
		var err error
		switch verb {
		case "select", "insert", "delete_rows", "update", "create", "drop", "savepoint":
			err = runSQL(ctx, c, line, out)
		case "sql":
			err = runSQL(ctx, c, strings.TrimSpace(strings.TrimPrefix(line, fields[0])), out)
		default:
			err = clientVerb(ctx, c, fields, out)
		}
		if err != nil {
			fmt.Fprintln(out, "error:", err)
		}
	}
}
