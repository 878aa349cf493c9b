package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestReadsServeDuringOpenTransaction pins the MVCC server contract:
// SELECT, XPATH, RETRIEVE and STATS answer promptly — from the last
// published version — while another session holds an open transaction
// with uncommitted writes. Under the retired per-store RWMutex
// discipline every one of these reads would block until COMMIT.
func TestReadsServeDuringOpenTransaction(t *testing.T) {
	_, addr := startServer(t, Config{})
	ctx := context.Background()

	writer := mustDial(t, addr)
	if _, err := writer.Load(ctx, "a.xml", uniDoc("Conrad", 1)); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := writer.Begin(ctx); err != nil {
		t.Fatalf("begin: %v", err)
	}
	docID2, err := writer.Load(ctx, "b.xml", uniDoc("Kudrass", 2))
	if err != nil {
		t.Fatalf("load in tx: %v", err)
	}

	reader := mustDial(t, addr)
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err := reader.Query(ctx, countStudentsSQL)
		if err != nil {
			t.Errorf("query during tx: %v", err)
			return
		}
		if len(res.Rows) != 1 {
			t.Errorf("query during tx saw %d students, want 1 (uncommitted write leaked)", len(res.Rows))
		}
		if _, err := reader.Retrieve(ctx, docID2); err == nil {
			t.Errorf("retrieve during tx returned the uncommitted document")
		}
		xres, err := reader.XPath(ctx, "/University/Student/LName")
		if err != nil {
			t.Errorf("xpath during tx: %v", err)
			return
		}
		if len(xres.Rows) != 1 {
			t.Errorf("xpath during tx saw %d rows, want 1", len(xres.Rows))
		}
		stats, err := reader.Stats(ctx)
		if err != nil {
			t.Errorf("stats during tx: %v", err)
			return
		}
		if len(stats.StoreStats) != 1 || stats.StoreStats[0].Documents != 1 {
			t.Errorf("stats during tx = %+v, want 1 document", stats.StoreStats)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("reads blocked behind the open transaction")
	}
	if t.Failed() {
		return
	}

	if err := writer.Commit(ctx); err != nil {
		t.Fatalf("commit: %v", err)
	}
	res, err := reader.Query(ctx, countStudentsSQL)
	if err != nil {
		t.Fatalf("query after commit: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("query after commit saw %d students, want 2", len(res.Rows))
	}
	if _, err := reader.Retrieve(ctx, docID2); err != nil {
		t.Errorf("retrieve after commit: %v", err)
	}
}

// TestServerReadersVsWriterChurn runs concurrent client readers against
// a client writer doing load/delete churn. Every document carries one
// student, so each reader must see exactly one complete document state:
// the student count equals the number of committed documents at that
// version — never a fractional document.
func TestServerReadersVsWriterChurn(t *testing.T) {
	_, addr := startServer(t, Config{})
	ctx := context.Background()

	writer := mustDial(t, addr)
	if _, err := writer.Load(ctx, "pinned.xml", uniDoc("Conrad", 1)); err != nil {
		t.Fatalf("load: %v", err)
	}

	iters := 30
	if testing.Short() {
		iters = 8
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < iters; i++ {
			id, err := writer.Load(ctx, fmt.Sprintf("churn-%d.xml", i), uniDoc("Meier", 100+i))
			if err != nil {
				t.Errorf("writer load: %v", err)
				return
			}
			if err := writer.Delete(ctx, id); err != nil {
				t.Errorf("writer delete: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := mustDial(t, addr)
			for !stop.Load() {
				res, err := c.Query(ctx, countStudentsSQL)
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				if n := len(res.Rows); n != 1 && n != 2 {
					t.Errorf("reader %d saw %d students, want 1 or 2", g, n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
