package ordb

import (
	"fmt"
	"testing"
)

// badHash collapses everything into two full-hash values, forcing deep
// splits and long collision chains.
func badHash(o OID) uint64 { return uint64(o) & 1 }

// hashOID mixes an OID into a well-distributed 64-bit hash (splitmix64
// finalizer — OIDs are sequential, so mixing matters).
func hashOID(o OID) uint64 {
	x := uint64(o)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func TestPmapSetGetDelete(t *testing.T) {
	m := newPmap[OID, int](hashOID)
	const n = 2000
	for i := 1; i <= n; i++ {
		m = m.set(0, OID(i), i*10)
	}
	if m.len() != n {
		t.Fatalf("len = %d, want %d", m.len(), n)
	}
	for i := 1; i <= n; i++ {
		v, ok := m.get(OID(i))
		if !ok || v != i*10 {
			t.Fatalf("get(%d) = %d, %v", i, v, ok)
		}
	}
	if _, ok := m.get(OID(n + 1)); ok {
		t.Fatal("get of absent key succeeded")
	}
	// Overwrite does not grow the map.
	m = m.set(0, OID(7), 99)
	if m.len() != n {
		t.Fatalf("len after overwrite = %d, want %d", m.len(), n)
	}
	if v, _ := m.get(OID(7)); v != 99 {
		t.Fatalf("overwritten value = %d, want 99", v)
	}
	// Delete half; the rest survive.
	for i := 1; i <= n; i += 2 {
		m = m.del(0, OID(i))
	}
	if m.len() != n/2 {
		t.Fatalf("len after deletes = %d, want %d", m.len(), n/2)
	}
	for i := 1; i <= n; i++ {
		_, ok := m.get(OID(i))
		if want := i%2 == 0; ok != want {
			t.Fatalf("get(%d) present = %v, want %v", i, ok, want)
		}
	}
	// Deleting an absent key is a no-op returning the same map.
	before := m.len()
	m2 := m.del(0, OID(n+5))
	if m2.len() != before {
		t.Fatalf("del of absent key changed len: %d -> %d", before, m2.len())
	}
}

func TestPmapSnapshotIsolation(t *testing.T) {
	m := newPmap[OID, int](hashOID)
	for i := 1; i <= 100; i++ {
		m = m.set(0, OID(i), i)
	}
	snap := m // O(1) capture
	for i := 1; i <= 100; i++ {
		if i%3 == 0 {
			m = m.del(0, OID(i))
		} else {
			m = m.set(0, OID(i), -i)
		}
	}
	m = m.set(0, OID(500), 500)
	// The snapshot still sees the original bindings.
	if snap.len() != 100 {
		t.Fatalf("snapshot len = %d, want 100", snap.len())
	}
	for i := 1; i <= 100; i++ {
		v, ok := snap.get(OID(i))
		if !ok || v != i {
			t.Fatalf("snapshot get(%d) = %d, %v; want %d, true", i, v, ok, i)
		}
	}
	if _, ok := snap.get(OID(500)); ok {
		t.Fatal("snapshot sees a key added after capture")
	}
}

func TestPmapCollisions(t *testing.T) {
	m := newPmap[OID, string](badHash)
	const n = 50
	for i := 1; i <= n; i++ {
		m = m.set(0, OID(i), fmt.Sprint(i))
	}
	if m.len() != n {
		t.Fatalf("len = %d, want %d", m.len(), n)
	}
	for i := 1; i <= n; i++ {
		v, ok := m.get(OID(i))
		if !ok || v != fmt.Sprint(i) {
			t.Fatalf("get(%d) = %q, %v", i, v, ok)
		}
	}
	snap := m
	for i := 1; i <= n; i++ {
		m = m.del(0, OID(i))
	}
	if m.len() != 0 {
		t.Fatalf("len after deleting all = %d", m.len())
	}
	if snap.len() != n {
		t.Fatalf("snapshot len = %d, want %d", snap.len(), n)
	}
	for i := 1; i <= n; i++ {
		if v, ok := snap.get(OID(i)); !ok || v != fmt.Sprint(i) {
			t.Fatalf("snapshot get(%d) = %q, %v", i, v, ok)
		}
	}
}

func TestPmapIndexKeyHash(t *testing.T) {
	m := newPmap[indexKey, int](hashIndexKey)
	keys := []indexKey{
		{kind: 's', str: "alpha"},
		{kind: 's', str: "beta"},
		{kind: 'n', num: 42},
		{kind: 'n', num: 42.5},
		{kind: 'd', num: 1.7e18},
		{kind: 'r', num: 7, str: "TabStudent"},
	}
	for i, k := range keys {
		m = m.set(0, k, i)
	}
	for i, k := range keys {
		v, ok := m.get(k)
		if !ok || v != i {
			t.Fatalf("get(%+v) = %d, %v; want %d", k, v, ok, i)
		}
	}
}

// TestPmapEpochUpdates: updates under an epoch update that epoch's nodes
// in place and copy every older node, so a map captured before the epoch
// began keeps its bindings while updates within the epoch allocate only
// their new leaf.
func TestPmapEpochUpdates(t *testing.T) {
	m := newPmap[OID, int](hashOID)
	for i := 1; i <= 500; i++ {
		m = m.set(1, OID(i), i)
	}
	snap := m // published: the writer moves on to epoch 2
	for i := 1; i <= 500; i++ {
		if i%3 == 0 {
			m = m.del(2, OID(i))
		} else {
			m = m.set(2, OID(i), -i)
		}
	}
	m = m.set(2, OID(900), 900)
	for i := 1; i <= 500; i++ {
		if v, ok := snap.get(OID(i)); !ok || v != i {
			t.Fatalf("captured map: get(%d) = %d, %v; want %d", i, v, ok, i)
		}
		v, ok := m.get(OID(i))
		if want := i%3 != 0; ok != want || (ok && v != -i) {
			t.Fatalf("updated map: get(%d) = %d, %v", i, v, ok)
		}
	}
	if snap.len() != 500 || m.len() != 335 {
		t.Fatalf("len = %d captured, %d updated", snap.len(), m.len())
	}
	if _, ok := snap.get(OID(900)); ok {
		t.Fatal("captured map sees a key added after capture")
	}
	if n := testing.AllocsPerRun(10, func() { m = m.set(2, OID(1), 7) }); n != 1 {
		t.Errorf("rebinding a key within its epoch allocated %v times, want 1 (the leaf)", n)
	}
	if n := testing.AllocsPerRun(10, func() { m = m.set(0, OID(1), 7) }); n <= 1 {
		t.Errorf("a persistent update allocated %v times, want a copied path", n)
	}
}
