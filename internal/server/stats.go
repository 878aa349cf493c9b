package server

import (
	"sort"
	"sync/atomic"
	"time"

	"xmlordb/internal/wire"
)

// metrics aggregates server observability: session gauges, per-verb
// request counters and latency sums, and defensive-limit counters. Every
// update is atomic and takes no lock: the per-verb counters sit in a
// fixed array with one row per served verb plus the shared UNKNOWN and
// (malformed) rows.
type metrics struct {
	sessionsOpen  atomic.Int64
	sessionsTotal atomic.Int64
	snapshots     atomic.Int64
	timeouts      atomic.Int64
	oversized     atomic.Int64

	verbs []verbCounters // indexed like statRows
}

const (
	// unknownVerb is the STATS row that counts every request whose verb
	// the server does not serve.
	unknownVerb = "UNKNOWN"
	// malformedVerb is the STATS row that counts requests that do not
	// decode.
	malformedVerb = "(malformed)"
)

// statRows names the STATS rows in the order STATS lists them, and
// statIndex maps each name to its position.
var statRows, statIndex = newStatRows()

func newStatRows() ([]string, map[string]int) {
	rows := []string{unknownVerb, malformedVerb}
	for v := range knownVerbs {
		rows = append(rows, v)
	}
	sort.Strings(rows)
	index := make(map[string]int, len(rows))
	for i, v := range rows {
		index[v] = i
	}
	return rows, index
}

type verbCounters struct {
	count  atomic.Int64
	errors atomic.Int64
	nanos  atomic.Int64
}

func newMetrics() *metrics {
	return &metrics{verbs: make([]verbCounters, len(statRows))}
}

// observe records one completed request for verb, a served verb or one
// of the shared rows.
func (m *metrics) observe(verb string, d time.Duration, ok bool) {
	i, known := statIndex[verb]
	if !known {
		i = statIndex[unknownVerb]
	}
	vc := &m.verbs[i]
	vc.count.Add(1)
	vc.nanos.Add(int64(d))
	if !ok {
		vc.errors.Add(1)
	}
}

// verbStats renders the counters of every verb seen so far, sorted by
// verb name.
func (m *metrics) verbStats() []wire.VerbStat {
	var out []wire.VerbStat
	for i, v := range statRows {
		c := &m.verbs[i]
		n := c.count.Load()
		if n == 0 {
			continue
		}
		out = append(out, wire.VerbStat{
			Verb:       v,
			Count:      n,
			Errors:     c.errors.Load(),
			TotalNanos: c.nanos.Load(),
		})
	}
	return out
}
