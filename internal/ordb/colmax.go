package ordb

// Cached column maximum.
//
// A key allocator asks "what is the highest integer stored in this
// column" on every insert; answering by scan makes every load cost what
// the store holds. The table therefore caches the answer for the column
// last asked about. The cache is a function of the stored rows and
// nothing else: every mutation that lets a row enter raises it, every
// mutation that lets the row carrying the maximum leave drops it, and
// the next request recomputes it with one scan. It is never persisted,
// so a snapshot carries no counter and recovery derives the same answers
// from the same rows.
type maxCache struct {
	col   int
	val   int
	valid bool
	// gen counts row mutations; a recompute that scanned outside the lock
	// is stored only when no mutation slipped in between.
	gen uint64
}

// intAt is the cached column's value in vals as the allocator counts it:
// the integer part of a number, 0 for anything else.
func (c *maxCache) intAt(vals []Value) int {
	if n, ok := vals[c.col].(Num); ok {
		return int(n)
	}
	return 0
}

// MaxInt returns the highest positive integer stored in column col (by
// position) across all rows, and 0 when there is none — the value a key
// allocator adds one to. O(1) unless a row that carried the maximum left
// the table since the last call, in which case one scan (charged to
// RowsScanned) re-derives it. A published version carries no cache and
// always scans.
func (t *Table) MaxInt(col int) int {
	t.db.rlock()
	c := t.max
	t.db.runlock()
	if c.valid && c.col == col {
		return c.val
	}
	c = maxCache{col: col, valid: true, gen: c.gen}
	t.Scan(func(r *Row) bool {
		if n := c.intAt(r.Vals); n > c.val {
			c.val = n
		}
		return true
	})
	if !t.db.frozen {
		t.db.mu.Lock()
		if t.max.gen == c.gen {
			t.max = c
		}
		t.db.mu.Unlock()
	}
	return c.val
}

// maxEnterLocked accounts for a row entering the table. Callers hold
// db.mu (write).
func (t *Table) maxEnterLocked(vals []Value) {
	t.max.gen++
	if n := t.max.intAt(vals); t.max.valid && n > t.max.val {
		t.max.val = n
	}
}

// maxLeaveLocked accounts for a row leaving the table: when it carried
// the maximum the cache is dropped — another row may or may not hold the
// same value, and only a scan can tell. Callers hold db.mu (write).
func (t *Table) maxLeaveLocked(vals []Value) {
	t.max.gen++
	if n := t.max.intAt(vals); n > 0 && n >= t.max.val {
		t.max.valid = false
	}
}

// maxReplaceLocked accounts for a row whose values change from old to
// repl. An unchanged key — the loader's IDREF fix-ups rewrite the very
// row that carries the newest DocID — leaves the cache alone. Callers
// hold db.mu (write).
func (t *Table) maxReplaceLocked(old, repl []Value) {
	if t.max.intAt(old) == t.max.intAt(repl) {
		return
	}
	t.maxEnterLocked(repl)
	t.maxLeaveLocked(old)
}
