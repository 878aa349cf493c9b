package server

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xmlordb/internal/wire"
)

// metrics aggregates server observability: session gauges, per-verb
// request counters and latency sums, and defensive-limit counters. All
// hot-path updates are atomic; the verb map is guarded by a mutex taken
// once per distinct verb name.
type metrics struct {
	sessionsOpen  atomic.Int64
	sessionsTotal atomic.Int64
	snapshots     atomic.Int64
	timeouts      atomic.Int64
	oversized     atomic.Int64

	mu    sync.Mutex
	verbs map[string]*verbCounters
}

// unknownVerb is the STATS row that counts every request whose verb the
// server does not serve.
const unknownVerb = "UNKNOWN"

type verbCounters struct {
	count  atomic.Int64
	errors atomic.Int64
	nanos  atomic.Int64
}

func newMetrics() *metrics {
	return &metrics{verbs: map[string]*verbCounters{}}
}

// observe records one completed request for verb.
func (m *metrics) observe(verb string, d time.Duration, ok bool) {
	m.mu.Lock()
	vc := m.verbs[verb]
	if vc == nil {
		vc = &verbCounters{}
		m.verbs[verb] = vc
	}
	m.mu.Unlock()
	vc.count.Add(1)
	vc.nanos.Add(int64(d))
	if !ok {
		vc.errors.Add(1)
	}
}

// verbStats renders the per-verb counters sorted by verb name.
func (m *metrics) verbStats() []wire.VerbStat {
	m.mu.Lock()
	names := make([]string, 0, len(m.verbs))
	for v := range m.verbs {
		names = append(names, v)
	}
	counters := make(map[string]*verbCounters, len(m.verbs))
	for v, c := range m.verbs {
		counters[v] = c
	}
	m.mu.Unlock()
	sort.Strings(names)
	out := make([]wire.VerbStat, 0, len(names))
	for _, v := range names {
		c := counters[v]
		out = append(out, wire.VerbStat{
			Verb:       v,
			Count:      c.count.Load(),
			Errors:     c.errors.Load(),
			TotalNanos: c.nanos.Load(),
		})
	}
	return out
}
