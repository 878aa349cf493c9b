package sql

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Statement and plan caching. Parsing is schema-independent, so parsed
// statements live in one process-wide LRU keyed on SQL text and are
// shared by every engine (ASTs are immutable once built — the executor
// never mutates them). A plan is the statement bound (bind.go) with its
// join choices; join choices depend on the catalog, so each Engine keeps
// its own plan table keyed on the AST pointer; any DDL statement evicts
// all plans, which is what keeps a cached plan from referencing a
// dropped table or column.

// parseCacheSize bounds the process-wide statement cache.
const parseCacheSize = 512

type parseEntry struct {
	src  string
	stmt Stmt
}

type parseCache struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // front = most recently used; values are *parseEntry
	hits    atomic.Int64
	misses  atomic.Int64
}

var stmtCache = &parseCache{
	entries: make(map[string]*list.Element),
	lru:     list.New(),
}

// get returns the cached parse of src, if any.
func (c *parseCache) get(src string) (Stmt, bool) {
	c.mu.Lock()
	el, ok := c.entries[src]
	var stmt Stmt
	if ok {
		c.lru.MoveToFront(el)
		stmt = el.Value.(*parseEntry).stmt // put may replace it
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return stmt, true
}

// put stores a successful parse, evicting the least recently used entry
// beyond capacity.
func (c *parseCache) put(src string, stmt Stmt) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[src]; ok {
		c.lru.MoveToFront(el)
		el.Value.(*parseEntry).stmt = stmt
		return
	}
	c.entries[src] = c.lru.PushFront(&parseEntry{src: src, stmt: stmt})
	for c.lru.Len() > parseCacheSize {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*parseEntry).src)
	}
}

// CachedParse parses src through the process-wide statement cache. Parse
// errors are not cached. The returned AST is shared: callers must treat
// it as immutable.
func CachedParse(src string) (Stmt, error) {
	if stmt, ok := stmtCache.get(src); ok {
		return stmt, nil
	}
	stmt, err := ParseStatement(src)
	if err != nil {
		return nil, err
	}
	stmtCache.put(src, stmt)
	return stmt, nil
}

// CacheStats reports cache effectiveness: the process-wide parse counters
// plus this engine's plan counters.
type CacheStats struct {
	ParseHits   int64
	ParseMisses int64
	PlanHits    int64
	PlanMisses  int64
}

// CacheStats returns a snapshot of the cache counters.
func (en *Engine) CacheStats() CacheStats {
	return CacheStats{
		ParseHits:   stmtCache.hits.Load(),
		ParseMisses: stmtCache.misses.Load(),
		PlanHits:    en.plans.hits.Load(),
		PlanMisses:  en.plans.misses.Load(),
	}
}

// planCache is the bound-plan cache, keyed on the (cache-stable) AST
// pointer. The hot path — one lookup per executed SELECT — is a single
// atomic pointer load with no lock: the table behind the pointer is
// immutable, and writers (plan misses, DDL invalidation) install a
// replacement table under mu. Plan misses are rare after warm-up, so
// the copy-on-insert write cost buys an uncontended read path for the
// MVCC reader engines that all share this cache.
type planCache struct {
	table atomic.Pointer[map[*SelectStmt]*boundSelect]
	// mu serializes writers only; readers never take it.
	mu     sync.Mutex
	hits   atomic.Int64
	misses atomic.Int64
}

func newPlanCache() *planCache {
	c := &planCache{}
	empty := map[*SelectStmt]*boundSelect{}
	c.table.Store(&empty)
	return c
}

// planFor returns the cached bound plan for sel, binding and caching it
// on first use. Keying on the AST pointer works because CachedParse
// returns a stable pointer per SQL text and plans are evicted wholesale
// on DDL.
func (en *Engine) planFor(sel *SelectStmt) *boundSelect {
	c := en.plans
	if p := (*c.table.Load())[sel]; p != nil {
		c.hits.Add(1)
		return p
	}
	c.misses.Add(1)
	p := en.bindSelect(sel, nil)
	c.mu.Lock()
	old := *c.table.Load()
	if len(old) > 4096 {
		// A plan whose AST fell out of the parse LRU can never be hit
		// again; the occasional wholesale reset bounds that garbage.
		old = nil
	}
	next := make(map[*SelectStmt]*boundSelect, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[sel] = p
	c.table.Store(&next)
	c.mu.Unlock()
	return p
}

// invalidatePlans drops every cached plan. Called before any DDL so no
// plan outlives the catalog state it was computed against.
func (en *Engine) invalidatePlans() {
	c := en.plans
	c.mu.Lock()
	empty := map[*SelectStmt]*boundSelect{}
	c.table.Store(&empty)
	c.mu.Unlock()
}

// PlanCacheLen reports the number of cached plans (test hook).
func (en *Engine) PlanCacheLen() int {
	return len(*en.plans.table.Load())
}
