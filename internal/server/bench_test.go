package server

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"xmlordb"
	"xmlordb/internal/client"
)

// Wire-level benchmarks: full round trips (frame encode, TCP loopback,
// server dispatch with lock discipline, frame decode) for the three hot
// verbs. The wire harness (`bash benchmark/run.sh --trace 1`) splits the
// same round trips into per-layer time.

func benchServer(b *testing.B) (*client.Client, func()) {
	b.Helper()
	srv := New(Config{})
	st, err := xmlordb.Open(uniDTD, "University", xmlordb.Config{})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.AddStore("uni", st); err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	c, err := client.Dial(ln.Addr().String(), client.WithTimeout(30*time.Second))
	if err != nil {
		b.Fatal(err)
	}
	return c, func() {
		c.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}
}

func BenchmarkServerLoad(b *testing.B) {
	c, stop := benchServer(b)
	defer stop()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Load(ctx, fmt.Sprintf("b%d.xml", i), uniDoc(fmt.Sprintf("S%d", i), i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServerQuery(b *testing.B) {
	c, stop := benchServer(b)
	defer stop()
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := c.Load(ctx, fmt.Sprintf("b%d.xml", i), uniDoc(fmt.Sprintf("S%d", i), i+1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query(ctx, countStudentsSQL); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServerRetrieve(b *testing.B) {
	c, stop := benchServer(b)
	defer stop()
	ctx := context.Background()
	id, err := c.Load(ctx, "b.xml", uniDoc("Bench", 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Retrieve(ctx, id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerParallelQuery measures read-path concurrency: many
// goroutines, each with its own connection, querying in parallel under
// the store read lock.
func BenchmarkServerParallelQuery(b *testing.B) {
	srv := New(Config{})
	st, err := xmlordb.Open(uniDTD, "University", xmlordb.Config{})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.AddStore("uni", st); err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	ctx := context.Background()
	seed, err := client.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := seed.Load(ctx, fmt.Sprintf("b%d.xml", i), uniDoc(fmt.Sprintf("S%d", i), i+1)); err != nil {
			b.Fatal(err)
		}
	}
	seed.Close()
	var failed atomic.Bool
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c, err := client.Dial(ln.Addr().String())
		if err != nil {
			failed.Store(true)
			return
		}
		defer c.Close()
		for pb.Next() {
			if _, err := c.Query(ctx, countStudentsSQL); err != nil {
				failed.Store(true)
				return
			}
		}
	})
	if failed.Load() {
		b.Fatal("parallel query failed")
	}
}
