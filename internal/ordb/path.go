package ordb

import (
	"fmt"
	"strings"
	"time"
)

func parseInLayout(layout, s string) (DateVal, error) {
	t, err := time.Parse(layout, s)
	if err != nil {
		return DateVal{}, err
	}
	return DateVal(t), nil
}

// AttrSlot memoises the attribute position one navigation step resolved
// in one object type, so that a step repeated over many objects of that
// type matches its name once. The zero value is unresolved.
type AttrSlot struct {
	typeName string
	idx      int
	ok       bool
}

// NavigateStep follows one dot-notation attribute step from the non-NULL
// value v — the paper's "simple database queries by using dot notation"
// (Section 7). A REF is dereferenced transparently (Oracle requires the
// references to be scoped; we resolve via the stored table name).
// Collections cannot be navigated into with plain dot notation, matching
// Oracle: the caller must unnest them (TABLE() in the sql package). slot
// memoises the attribute position per object type: the catalog is
// consulted only when the object's type name differs from the slot's.
func (db *DB) NavigateStep(v Value, step string, slot *AttrSlot) (Value, error) {
	if r, ok := v.(Ref); ok {
		o, err := db.FetchByOID(r.Table, r.OID)
		if err != nil {
			return nil, err
		}
		v = o
	}
	o, ok := v.(*Object)
	if !ok {
		if _, isColl := v.(*Coll); isColl {
			return nil, fmt.Errorf("ordb: cannot navigate %q into a collection; unnest with TABLE()", step)
		}
		return nil, fmt.Errorf("ordb: cannot navigate %q into scalar %T", step, v)
	}
	if !slot.ok || slot.typeName != o.TypeName {
		t, err := db.Type(o.TypeName)
		if err != nil {
			return nil, err
		}
		ot := t.(*ObjectType)
		idx := ot.AttrIndex(step)
		if idx < 0 {
			return nil, fmt.Errorf("ordb: type %s has no attribute %q", ot.Name, step)
		}
		*slot = AttrSlot{typeName: o.TypeName, idx: idx, ok: true}
	}
	return o.Attrs[slot.idx], nil
}

// ParsePath splits a dot-notation path string into steps.
func ParsePath(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ".")
}
