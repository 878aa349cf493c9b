package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xmlordb"
	"xmlordb/internal/client"
	"xmlordb/internal/retrieval"
	"xmlordb/internal/server"
	"xmlordb/internal/wire"
	"xmlordb/internal/workload"
	"xmlordb/internal/xmldom"
	"xmlordb/internal/xmlparser"
)

// The system under test is configured like `xmlordbd serve -durability
// always -snapshot-dir <dir> -backend mem -ingest-workers 2`: the load is
// a closed loop of at most maxClients connections, because the reference
// host has two processors and callers of a document store wait for their
// reply before they send the next request.
const (
	storeName  = "uni"
	syncPolicy = "always"
	maxClients = 2
	batchDocs  = 64
	// retrieveCheckEvery and loadCheckEvery pick the 1 % of retrieve
	// replies and loaded documents compared with the original document.
	retrieveCheckEvery = 100
	loadCheckEvery     = 100
	// deleteGuard keeps mixed_rw_ref's reader away from the documents
	// its writer deletes next, so no read races a delete and fails.
	deleteGuard = 32
)

// sizes are the workload sizes frozen for this benchmark. Load workloads
// cycle through a pool of distinct documents for the whole window; read
// workloads preload a fixed store.
type sizes struct {
	pool       int // distinct documents the load workloads cycle through
	nestedDocs int // documents read_mix preloads
	refDocs    int // documents mixed_rw_ref preloads and keeps live
	warmDocs   int // documents a load workload loads before the window
	warmReads  int // requests each reading client sends before the window
	setups     int // timed set-ups per untraced run; setup_s is their median
}

var (
	fullSizes  = sizes{pool: 2048, nestedDocs: 1000, refDocs: 500, warmDocs: 512, warmReads: 400, setups: 3}
	smokeSizes = sizes{pool: 64, nestedDocs: 16, refDocs: 16, warmDocs: 8, warmReads: 8, setups: 1}
)

// workloadDef is what distinguishes the four workloads outside their
// request loops.
type workloadDef struct {
	name     string
	ref      bool // the store uses the Oracle 8 REF mapping
	clients  int
	docs     func(sizes) int // documents generated
	preload  bool            // the generated documents are stored during set-up
	headline verb            // the verb p50_ms and tail_ms report
	// tail is the percentile tail_ms reports: the 99th where a window
	// holds thousands of requests of the headline verb, the 95th for
	// BULKLOAD, of which a window holds a few hundred — the highest
	// percentile that still has ten samples beyond it.
	tail float64
	// counted are the verbs ops_per_s adds up: documents acknowledged
	// per second where the workload loads, read requests per second where
	// it only reads.
	counted []verb
	// traceOps gives, per second of --seconds, how many closed-loop
	// iterations each client runs in a traced run's wire phase and how
	// many operations its staged phase plays.
	wirePerSec   []float64
	stagedPerSec float64
}

var readVerbs = []verb{vSQLPoint, vSQLJoin, vXPath, vRetrieve}

var workloads = []*workloadDef{
	{name: "load_single", clients: 2, docs: func(s sizes) int { return s.pool },
		headline: vLoad, tail: 99, counted: []verb{vLoad},
		wirePerSec: []float64{200, 200}, stagedPerSec: 100},
	{name: "load_bulk", clients: 1, docs: func(s sizes) int { return s.pool },
		headline: vBulkLoad, tail: 95, counted: []verb{vBulkLoad},
		wirePerSec: []float64{10}, stagedPerSec: 4},
	{name: "read_mix", clients: 2, docs: func(s sizes) int { return s.nestedDocs }, preload: true,
		headline: vRetrieve, tail: 99, counted: readVerbs,
		wirePerSec: []float64{200, 200}, stagedPerSec: 120},
	{name: "mixed_rw_ref", ref: true, clients: 2, docs: func(s sizes) int { return s.refDocs }, preload: true,
		headline: vRetrieve, tail: 99, counted: []verb{vLoad},
		wirePerSec: []float64{60, 9}, stagedPerSec: 6},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func (w *workloadDef) storeConfig() xmlordb.Config {
	if w.ref {
		return xmlordb.Config{Strategy: xmlordb.StrategyRef}
	}
	return xmlordb.Config{}
}

// env is one in-process server on loopback TCP.
type env struct {
	srv    *server.Server
	served chan error
	addr   string
}

func boot(dataDir string) (*env, error) {
	srv := server.New(server.Config{
		SnapshotDir:   dataDir,
		Durability:    syncPolicy,
		Backend:       xmlordb.BackendMem,
		IngestWorkers: 2,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &env{srv: srv, served: make(chan error, 1), addr: ln.Addr().String()}
	go func() { e.served <- srv.Serve(ln) }()
	return e, nil
}

// stop drains the server and waits for its accept loop to end.
func (e *env) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.served; err == nil {
		err = serr
	}
	return err
}

// target is one stored document: its index in the corpus and the DocID
// the server gave it.
type target struct{ doc, docID int }

// bed is one set-up: generated inputs, a booted server with the store
// open and preloaded, and the workload's client connections.
type bed struct {
	w       *workloadDef
	corp    *corpus
	env     *env
	clients []*client.Client
	stored  []target // preloaded documents, in corpus order
	dir     string
}

// setUp generates the corpus, boots a server on dir, opens the store and
// preloads it when the workload reads. It returns the time those steps
// took and the live heap measured after the corpus exists and before the
// server does, which is the base the store's memory is measured from.
func setUp(w *workloadDef, seed int64, sz sizes, dir string) (b *bed, took time.Duration, heapBase uint64, err error) {
	start := time.Now()
	corp := newCorpus(seed, w.docs(sz))
	took = time.Since(start)
	heapBase = liveHeap()

	start = time.Now()
	b = &bed{w: w, corp: corp, dir: dir}
	defer func() {
		if err != nil {
			b.tearDown()
		}
	}()
	if err = os.MkdirAll(dir, 0o755); err != nil {
		return b, 0, 0, err
	}
	if b.env, err = boot(dir); err != nil {
		return b, 0, 0, err
	}
	// OPEN over the wire always takes the default mapping, so the store
	// is installed through the same Server.OpenStore the verb calls,
	// which is the only way to ask for the REF mapping.
	if err = b.env.srv.OpenStore(storeName, workload.UniversityDTD, universityRoot, w.storeConfig()); err != nil {
		return b, 0, 0, err
	}
	ctx := context.Background()
	for i := 0; i < w.clients; i++ {
		c, derr := client.Dial(b.env.addr)
		if derr != nil {
			return b, 0, 0, derr
		}
		b.clients = append(b.clients, c)
		if err = c.Use(ctx, storeName); err != nil {
			return b, 0, 0, err
		}
	}
	if w.preload {
		for lo := 0; lo < len(corp.docs); lo += batchDocs {
			docs, _ := corp.bulkDocs(lo, min(batchDocs, len(corp.docs)-lo))
			ids, lerr := sendBulk(ctx, b.clients[0], docs)
			if lerr != nil {
				return b, 0, 0, fmt.Errorf("preload: %w", lerr)
			}
			for i, id := range ids {
				b.stored = append(b.stored, target{doc: lo + i, docID: id})
			}
		}
	}
	return b, took + time.Since(start), heapBase, nil
}

// tearDown closes the clients, drains the server and removes its data.
func (b *bed) tearDown() error {
	for _, c := range b.clients {
		c.Close()
	}
	var err error
	if b.env != nil {
		err = b.env.stop()
	}
	if rerr := os.RemoveAll(b.dir); err == nil {
		err = rerr
	}
	return err
}

// bulkDocs builds the documents of one BULKLOAD: n documents numbered
// from seq, document number i carrying the text of corpus document i
// modulo the corpus size. It also returns their XML bytes.
func (c *corpus) bulkDocs(seq, n int) (docs []wire.BulkDoc, bytes int64) {
	docs = make([]wire.BulkDoc, n)
	for i := range docs {
		xml := c.docs[(seq+i)%len(c.docs)].xml
		docs[i] = wire.BulkDoc{Name: docName(seq + i), XML: xml}
		bytes += int64(len(xml))
	}
	return docs, bytes
}

// sendBulk sends the documents as one BULKLOAD of one commit batch and
// returns their DocIDs; anything short of every document loaded is an error.
func sendBulk(ctx context.Context, c *client.Client, docs []wire.BulkDoc) ([]int, error) {
	res, err := c.BulkLoad(ctx, docs, client.BulkOptions{BatchDocs: len(docs)})
	if err != nil {
		return nil, err
	}
	if res == nil || res.Loaded != len(docs) || res.Failed != 0 || len(res.Docs) != len(docs) {
		return nil, fmt.Errorf("BULKLOAD of %d documents acknowledged %+v", len(docs), res)
	}
	ids := make([]int, len(docs))
	for i, d := range res.Docs {
		if d.DocID <= 0 || d.Error != "" {
			return nil, fmt.Errorf("BULKLOAD document %s: docid %d, error %q", d.Name, d.DocID, d.Error)
		}
		ids[i] = d.DocID
	}
	return ids, nil
}

// liveHeap is the Go heap still reachable after collection. One cycle
// leaves what sync.Pool caches (the JSON encoder keeps frame-sized
// buffers there) and what finalizers hold; the third cycle has dropped
// both, and without it the number moves by several percent.
func liveHeap() uint64 {
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// sample is one timed request. units is what the request acknowledged:
// documents for load verbs, one for everything else.
type sample struct {
	verb  verb
	units int32
	start int64 // ns since the phase began
	lat   int64 // ns
}

// kept is a stored document set aside for comparison with its original
// after the window: reply holds a RETRIEVE reply already received, and is
// empty when the document is still to be fetched.
type kept struct {
	target
	reply string
}

// recorder collects one client's samples and outcomes. Only its own
// client goroutine touches it while a phase runs.
type recorder struct {
	began     time.Time
	samples   []sample
	attempted int64
	failed    int64
	firstErr  error
	kept      []kept
}

func (r *recorder) note(v verb, units int, start time.Time, err error) {
	lat := time.Since(start)
	r.attempted++
	if err != nil {
		r.fail(fmt.Errorf("%s: %w", v, err))
		return
	}
	r.samples = append(r.samples, sample{verb: v, units: int32(units), start: int64(start.Sub(r.began)), lat: int64(lat)})
}

func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// actor is one client's closed loop: step sends the next request (or the
// next pair of a writer) and waits for the reply.
type actor interface {
	step(ctx context.Context, rec *recorder)
}

// drive runs every actor on its own goroutine until stop says so for that
// actor, and returns how long the phase took. Samples of earlier phases
// are dropped; outcomes accumulate.
func drive(actors []actor, recs []*recorder, stop func(actor, iterations int, now time.Time) bool) time.Duration {
	began := time.Now()
	var wg sync.WaitGroup
	for i := range actors {
		recs[i].began = began
		recs[i].samples = recs[i].samples[:0]
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			for n := 0; !stop(i, n, time.Now()); n++ {
				actors[i].step(ctx, recs[i])
			}
		}(i)
	}
	wg.Wait()
	return time.Since(began)
}

func forDuration(d time.Duration) func(int, int, time.Time) bool {
	deadline := time.Now().Add(d)
	return func(_, _ int, now time.Time) bool { return !now.Before(deadline) }
}

func forCounts(counts []int) func(int, int, time.Time) bool {
	return func(actor, n int, _ time.Time) bool { return n >= counts[actor] }
}

// loadState is what the loading clients of one run share.
type loadState struct {
	corp     *corpus
	seq      atomic.Int64 // next document sequence number
	acked    atomic.Int64 // documents acknowledged
	written  atomic.Int64 // XML bytes of the documents acknowledged
	resident atomic.Int64 // XML bytes of the documents now stored
}

func (st *loadState) ack(docs int, bytes int64) {
	st.acked.Add(int64(docs))
	st.written.Add(bytes)
	st.resident.Add(bytes)
}

// singleLoader sends one LOAD per document.
type singleLoader struct {
	c  *client.Client
	st *loadState
}

func (a *singleLoader) step(ctx context.Context, rec *recorder) {
	if t, check, ok := a.st.loadNext(ctx, a.c, rec); ok && check {
		rec.kept = append(rec.kept, kept{target: t})
	}
}

// loadNext sends the next document of the sequence as one timed LOAD.
// check marks the 1 % of documents to compare with their original.
func (st *loadState) loadNext(ctx context.Context, c *client.Client, rec *recorder) (t target, check, ok bool) {
	seq := int(st.seq.Add(1) - 1)
	doc := seq % len(st.corp.docs)
	xml := st.corp.docs[doc].xml
	name := docName(seq)
	start := time.Now()
	id, err := c.Load(ctx, name, xml)
	if err == nil && id <= 0 {
		err = fmt.Errorf("LOAD acknowledged docid %d", id)
	}
	rec.note(vLoad, 1, start, err)
	if err != nil {
		return target{}, false, false
	}
	st.ack(1, int64(len(xml)))
	return target{doc: doc, docID: id}, seq%loadCheckEvery == 0, true
}

// bulkLoader sends BULKLOAD requests of batchDocs documents, one commit
// batch each.
type bulkLoader struct {
	c  *client.Client
	st *loadState
}

func (a *bulkLoader) step(ctx context.Context, rec *recorder) {
	seq := int(a.st.seq.Add(batchDocs) - batchDocs)
	docs, bytes := a.st.corp.bulkDocs(seq, batchDocs)
	start := time.Now()
	ids, err := sendBulk(ctx, a.c, docs)
	rec.note(vBulkLoad, batchDocs, start, err)
	if err != nil {
		return
	}
	a.st.ack(batchDocs, bytes)
	for i, id := range ids {
		if (seq+i)%loadCheckEvery == 0 {
			rec.kept = append(rec.kept, kept{target: target{doc: (seq + i) % len(a.st.corp.docs), docID: id}})
		}
	}
}

// reader sends the requests of a readMix and checks each reply against
// the generator's ground truth.
type reader struct {
	c         *client.Client
	gen       *readMix
	retrieves int
}

func (a *reader) step(ctx context.Context, rec *recorder) {
	op := a.gen.next()
	switch op.verb {
	case vSQLPoint, vSQLJoin:
		start := time.Now()
		res, err := a.c.Query(ctx, op.text)
		rec.note(op.verb, 1, start, rowsErr(res, err, op.want))
	case vXPath:
		start := time.Now()
		res, err := a.c.XPath(ctx, op.text)
		rec.note(op.verb, 1, start, rowsErr(res, err, op.want))
	case vRetrieve:
		start := time.Now()
		xml, err := a.c.Retrieve(ctx, op.target.docID)
		if err == nil && xml == "" {
			err = fmt.Errorf("empty document %d", op.target.docID)
		}
		rec.note(op.verb, 1, start, err)
		if a.retrieves++; err == nil && a.retrieves%retrieveCheckEvery == 0 {
			rec.kept = append(rec.kept, kept{target: op.target, reply: xml})
		}
	}
}

func rowsErr(res *client.Result, err error, want int) error {
	if err != nil {
		return err
	}
	if len(res.Rows) != want {
		return fmt.Errorf("%d rows, ground truth says %d", len(res.Rows), want)
	}
	return nil
}

// liveSet is the documents of mixed_rw_ref's store. The first
// pointTargets documents are pinned: sql_point addresses them and the
// writer never deletes them. The rest is a queue the writer appends to
// and deletes the oldest of, so the store keeps its size.
type liveSet struct {
	mu     sync.Mutex
	pinned []target
	queue  []target // oldest first
	guard  int
}

func newLiveSet(stored []target) *liveSet {
	l := &liveSet{pinned: stored[:pointTargets], queue: append([]target(nil), stored[pointTargets:]...)}
	l.guard = min(deleteGuard, len(l.queue)/2)
	return l
}

// pick returns a document that stays stored for at least the next guard
// deletes.
func (l *liveSet) pick(rng *rand.Rand) target {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.pinned) + len(l.queue) - l.guard
	i := rng.Intn(n)
	if i < len(l.pinned) {
		return l.pinned[i]
	}
	return l.queue[i-len(l.pinned)+l.guard]
}

func (l *liveSet) push(t target) {
	l.mu.Lock()
	l.queue = append(l.queue, t)
	l.mu.Unlock()
}

func (l *liveSet) popOldest() target {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.queue[0]
	l.queue = l.queue[1:]
	return t
}

func (l *liveSet) all() []target {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append(append([]target(nil), l.pinned...), l.queue...)
}

// churner is mixed_rw_ref's writer: LOAD a document, then DELETE the
// oldest one that is not pinned.
type churner struct {
	c    *client.Client
	st   *loadState
	live *liveSet
}

func (a *churner) step(ctx context.Context, rec *recorder) {
	t, check, ok := a.st.loadNext(ctx, a.c, rec)
	if !ok {
		return
	}
	a.live.push(t)
	if check {
		// Still stored after the window only if the window ends soon;
		// checked right away instead, outside the timed requests.
		a.checkNow(ctx, rec, t)
	}

	old := a.live.popOldest()
	start := time.Now()
	err := a.c.Delete(ctx, old.docID)
	rec.note(vDelete, 1, start, err)
	if err == nil {
		a.st.resident.Add(-int64(len(a.st.corp.docs[old.doc].xml)))
	}
}

func (a *churner) checkNow(ctx context.Context, rec *recorder, t target) {
	rec.attempted++
	xml, err := a.c.Retrieve(ctx, t.docID)
	if err == nil {
		err = sameDocument(a.st.corp.docs[t.doc].xml, xml, false)
	}
	if err != nil {
		rec.fail(fmt.Errorf("document %d after LOAD: %w", t.docID, err))
	}
}

// sameDocument reports how a retrieved document differs from the one that
// was loaded. On the nested mapping the two must be equal in canonical
// form: parsed with entity references expanded, written without prolog
// and with one indentation. The REF mapping keeps every element,
// attribute and text but returns the children it stores in child tables
// after their inline siblings (the paper's Section 7 caveat on element
// order), so there the comparison ignores sibling order.
func sameDocument(original, retrieved string, ordered bool) error {
	want, err := xmlparser.ParseWith(original, xmlparser.Options{})
	if err != nil {
		return fmt.Errorf("original: %w", err)
	}
	got, err := xmlparser.ParseWith(retrieved, xmlparser.Options{})
	if err != nil {
		return fmt.Errorf("retrieved: %w", err)
	}
	if ordered {
		opt := xmldom.SerializeOptions{Indent: "  ", OmitXMLDecl: true, OmitDoctype: true}
		if xmldom.SerializeWith(got.Doc, opt) != xmldom.SerializeWith(want.Doc, opt) {
			return fmt.Errorf("retrieved document differs from the original in canonical form")
		}
		return nil
	}
	rep := retrieval.Fidelity(want.Doc, got.Doc)
	if rep.ElementsMatched != rep.ElementsTotal || rep.AttrsMatched != rep.AttrsTotal || rep.TextMatched != rep.TextTotal ||
		xmldom.CountNodes(got.Doc)[xmldom.ElementNode] != xmldom.CountNodes(want.Doc)[xmldom.ElementNode] {
		return fmt.Errorf("retrieved document lost or gained content: %s", rep)
	}
	return nil
}

// session is one workload on one bed: its actors, what they share and
// what they recorded.
type session struct {
	bed    *bed
	actors []actor
	recs   []*recorder
	load   *loadState
	live   *liveSet
	// base is the documents and bytes stored before any actor ran.
	baseDocs  int
	baseBytes int64
}

func newSession(b *bed, seed int64, recs []*recorder) *session {
	s := &session{bed: b, recs: recs[:b.w.clients], load: &loadState{corp: b.corp}}
	for _, t := range b.stored {
		s.baseDocs++
		s.baseBytes += int64(len(b.corp.docs[t.doc].xml))
	}
	s.load.resident.Store(s.baseBytes)
	s.load.seq.Store(int64(s.baseDocs))
	switch b.w.name {
	case "load_single":
		for _, c := range b.clients {
			s.actors = append(s.actors, &singleLoader{c: c, st: s.load})
		}
	case "load_bulk":
		s.actors = append(s.actors, &bulkLoader{c: b.clients[0], st: s.load})
	case "read_mix":
		pick := func(rng *rand.Rand) target { return b.stored[rng.Intn(len(b.stored))] }
		point := func(k int) target { return b.stored[k] }
		for i, c := range b.clients {
			s.actors = append(s.actors, &reader{c: c, gen: newReadMix(seed, i, b.corp, false, point, pick)})
		}
	case "mixed_rw_ref":
		s.live = newLiveSet(b.stored)
		point := func(k int) target { return s.live.pinned[k] }
		s.actors = append(s.actors,
			&reader{c: b.clients[0], gen: newReadMix(seed, 0, b.corp, true, point, s.live.pick)},
			&churner{c: b.clients[1], st: s.load, live: s.live})
	}
	return s
}

// newRecorders makes one recorder per possible client, with room for a
// window's samples so that appending does not allocate while requests are
// timed. They are made before the first set-up, so that they are part of
// the heap base and not of the store's measured memory.
func newRecorders() []*recorder {
	recs := make([]*recorder, maxClients)
	for i := range recs {
		recs[i] = &recorder{samples: make([]sample, 0, 1<<18)}
	}
	return recs
}

// warmUp lets caches fill and lazy set-up finish before anything is timed.
func (s *session) warmUp(sz sizes) {
	counts := make([]int, len(s.actors))
	for i, a := range s.actors {
		switch a.(type) {
		case *singleLoader:
			counts[i] = sz.warmDocs / len(s.actors)
		case *bulkLoader:
			counts[i] = max(1, sz.warmDocs/batchDocs)
		case *reader:
			counts[i] = sz.warmReads
			if s.bed.w.ref {
				counts[i] = sz.warmReads / 4
			}
		case *churner:
			counts[i] = max(1, sz.warmReads/40)
		}
	}
	drive(s.actors, s.recs, forCounts(counts))
}

// verify is the correctness gate after the last phase: the store holds
// exactly the acknowledged documents, and the documents set aside come
// back equal to their originals. Each check counts as an attempted
// operation and each mismatch as a failed one.
func (s *session) verify() {
	rec := s.recs[0]
	c := s.bed.clients[0]
	ctx := context.Background()

	countSQL := countNested
	if s.bed.w.ref {
		countSQL = countRef
	}
	want := s.baseDocs + int(s.load.acked.Load())
	if s.live != nil {
		want = len(s.live.all())
	}
	rec.attempted++
	res, err := c.Query(ctx, countSQL)
	switch {
	case err != nil:
		rec.fail(fmt.Errorf("count: %w", err))
	case len(res.Rows) != 1 || len(res.Rows[0]) != 1 || res.Rows[0][0] != float64(want):
		rec.fail(fmt.Errorf("store holds %v documents, %d were acknowledged", res.Rows, want))
	}

	for _, r := range s.recs {
		for _, k := range r.kept {
			rec.attempted++
			reply := k.reply
			if reply == "" {
				if reply, err = c.Retrieve(ctx, k.docID); err != nil {
					rec.fail(fmt.Errorf("retrieve %d: %w", k.docID, err))
					continue
				}
			}
			if err := sameDocument(s.bed.corp.docs[k.doc].xml, reply, !s.bed.w.ref); err != nil {
				rec.fail(fmt.Errorf("document %d: %w", k.docID, err))
			}
		}
		r.kept = nil
	}
}

func (s *session) outcome() (attempted, failed int64, firstErr error) {
	for _, r := range s.recs {
		attempted += r.attempted
		failed += r.failed
		if firstErr == nil {
			firstErr = r.firstErr
		}
	}
	return attempted, failed, firstErr
}

// summarize turns a phase's samples into per-verb timings. Throughput
// counts what completed inside the phase's duration.
func summarize(recs []*recorder, phase time.Duration) map[verb]verbSummary {
	lats := map[verb][]float64{}
	units := map[verb]int64{}
	for _, r := range recs {
		for _, sm := range r.samples {
			lats[sm.verb] = append(lats[sm.verb], float64(sm.lat)/1e6)
			if sm.start+sm.lat <= int64(phase) {
				units[sm.verb] += int64(sm.units)
			}
		}
	}
	out := map[verb]verbSummary{}
	for v, l := range lats {
		sort.Float64s(l)
		out[v] = verbSummary{
			N:         len(l),
			P50Ms:     percentile(l, 50),
			P95Ms:     percentile(l, 95),
			P99Ms:     percentile(l, 99),
			MeanMs:    mean(l),
			PerSecond: float64(units[v]) / phase.Seconds(),
		}
	}
	return out
}

// perSecond adds up the throughput of the given verbs.
func perSecond(m map[verb]verbSummary, verbs []verb) float64 {
	sum := 0.0
	for _, v := range verbs {
		sum += m[v].PerSecond
	}
	return sum
}

// sliceRates cuts the window into one-second slices and returns, per
// slice, the units of the given verbs completed in it: the time series
// behind ops_per_s, kept in the result file to show stalls and drift.
func sliceRates(recs []*recorder, window time.Duration, verbs []verb) []float64 {
	counted := [numVerbs]bool{}
	for _, v := range verbs {
		counted[v] = true
	}
	slices := make([]float64, int(math.Ceil(window.Seconds())))
	for _, r := range recs {
		for _, sm := range r.samples {
			if done := sm.start + sm.lat; counted[sm.verb] && done <= int64(window) {
				slices[min(int(done/int64(time.Second)), len(slices)-1)] += float64(sm.units)
			}
		}
	}
	return slices
}

func verbsByName(m map[verb]verbSummary) map[string]verbSummary {
	out := map[string]verbSummary{}
	for v, s := range m {
		out[v.String()] = s
	}
	return out
}

// dataDir names a fresh directory for one set-up inside scratch.
func dataDir(scratch string, cfg runConfig, n int) string {
	return filepath.Join(scratch, fmt.Sprintf("%s-seed%d-pid%d-%d", cfg.workload.name, cfg.seed, os.Getpid(), n))
}
