package ordb

import (
	"fmt"
	"strconv"
	"strings"
)

// conform validates v against the declared type t and returns the stored
// form (a deep copy for composite values). Conversions follow Oracle's
// implicit rules at the granularity the mapping needs: strings convert to
// numbers when parseable, numbers render into character columns, and
// constructor values must name the declared type (or, for collections and
// objects, be structurally checked element by element).
func (db *DB) conform(v Value, t Type) (Value, error) {
	if IsNull(v) {
		return Null{}, nil
	}
	switch ty := t.(type) {
	case VarcharType:
		// Fast path: an in-range Str is stored as-is (values are immutable
		// engine-wide, so returning the caller's boxed value is safe and
		// avoids re-boxing the interface).
		if s, ok := v.(Str); ok {
			if len(s) > ty.Len {
				return nil, fmt.Errorf("length %d exceeds VARCHAR(%d): %w", len(s), ty.Len, ErrValueTooLong)
			}
			return v, nil
		}
		s, err := toStr(v)
		if err != nil {
			return nil, err
		}
		if len(s) > ty.Len {
			return nil, fmt.Errorf("length %d exceeds VARCHAR(%d): %w", len(s), ty.Len, ErrValueTooLong)
		}
		return Str(s), nil
	case CharType:
		if s, ok := v.(Str); ok && len(s) == ty.Len {
			return v, nil // already exactly padded
		}
		s, err := toStr(v)
		if err != nil {
			return nil, err
		}
		if len(s) > ty.Len {
			return nil, fmt.Errorf("length %d exceeds CHAR(%d): %w", len(s), ty.Len, ErrValueTooLong)
		}
		// CHAR is blank-padded to its declared length.
		return Str(s + strings.Repeat(" ", ty.Len-len(s))), nil
	case CLOBType:
		if _, ok := v.(Str); ok {
			return v, nil
		}
		s, err := toStr(v)
		if err != nil {
			return nil, err
		}
		return Str(s), nil
	case NumberType, IntegerType:
		switch n := v.(type) {
		case Num:
			if t.Kind() == KindInteger && n != Num(int64(n)) {
				return nil, fmt.Errorf("%v is not an integer: %w", n, ErrTypeMismatch)
			}
			return v, nil
		case Str:
			f, err := strconv.ParseFloat(string(n), 64)
			if err != nil {
				return nil, fmt.Errorf("string %q is not numeric: %w", string(n), ErrTypeMismatch)
			}
			return Num(f), nil
		default:
			return nil, fmt.Errorf("%T for %s: %w", v, t.SQL(), ErrTypeMismatch)
		}
	case DateType:
		if _, ok := v.(DateVal); ok {
			return v, nil
		}
		if s, ok := v.(Str); ok {
			d, err := parseDate(string(s))
			if err != nil {
				return nil, err
			}
			return d, nil
		}
		return nil, fmt.Errorf("%T for DATE: %w", v, ErrTypeMismatch)
	case *ObjectType:
		if ty.Incomplete {
			return nil, fmt.Errorf("type %s: %w", ty.Name, ErrIncompleteType)
		}
		o, ok := v.(*Object)
		if !ok {
			return nil, fmt.Errorf("%T for object type %s: %w", v, ty.Name, ErrTypeMismatch)
		}
		if o.TypeName != "" && !strings.EqualFold(o.TypeName, ty.Name) {
			return nil, fmt.Errorf("constructor %s for column of type %s: %w", o.TypeName, ty.Name, ErrTypeMismatch)
		}
		if len(o.Attrs) != len(ty.Attrs) {
			return nil, fmt.Errorf("constructor %s: %d values for %d attributes: %w",
				ty.Name, len(o.Attrs), len(ty.Attrs), ErrArity)
		}
		// Copy-on-write: allocate a fresh attribute slice only when some
		// attribute's stored form differs from what the caller passed.
		// Values are immutable engine-wide, so sharing is safe.
		var attrs []Value
		for i, av := range o.Attrs {
			cv, err := db.conform(av, ty.Attrs[i].Type)
			if err != nil {
				return nil, fmt.Errorf("attribute %s: %w", ty.Attrs[i].Name, err)
			}
			if attrs == nil && cv != av {
				attrs = make([]Value, len(o.Attrs))
				copy(attrs, o.Attrs[:i])
			}
			if attrs != nil {
				attrs[i] = cv
			}
		}
		if attrs == nil && o.TypeName == ty.Name {
			return v, nil
		}
		if attrs == nil {
			attrs = o.Attrs
		}
		return &Object{TypeName: ty.Name, Attrs: attrs}, nil
	case *VarrayType:
		c, ok := v.(*Coll)
		if !ok {
			return nil, fmt.Errorf("%T for VARRAY %s: %w", v, ty.Name, ErrTypeMismatch)
		}
		if c.TypeName != "" && !strings.EqualFold(c.TypeName, ty.Name) {
			return nil, fmt.Errorf("constructor %s for column of type %s: %w", c.TypeName, ty.Name, ErrTypeMismatch)
		}
		if len(c.Elems) > ty.Max {
			return nil, fmt.Errorf("%d elements exceed VARRAY(%d) %s: %w",
				len(c.Elems), ty.Max, ty.Name, ErrVarrayOverflow)
		}
		return db.conformElems(c, ty.Name, ty.Elem)
	case *NestedTableType:
		c, ok := v.(*Coll)
		if !ok {
			return nil, fmt.Errorf("%T for nested table %s: %w", v, ty.Name, ErrTypeMismatch)
		}
		if c.TypeName != "" && !strings.EqualFold(c.TypeName, ty.Name) {
			return nil, fmt.Errorf("constructor %s for column of type %s: %w", c.TypeName, ty.Name, ErrTypeMismatch)
		}
		return db.conformElems(c, ty.Name, ty.Elem)
	case *RefType:
		r, ok := v.(Ref)
		if !ok {
			return nil, fmt.Errorf("%T for %s: %w", v, ty.SQL(), ErrTypeMismatch)
		}
		// Verify the target row exists and is of the declared type.
		tbl, err := db.Table(r.Table)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrDanglingRef, err)
		}
		if !tbl.IsObjectTable() || !strings.EqualFold(tbl.RowType.Name, ty.Target.Name) {
			return nil, fmt.Errorf("REF into %s is not of type %s: %w", r.Table, ty.Target.Name, ErrTypeMismatch)
		}
		db.rlock()
		exists := tbl.trie.get(uint64(r.OID)) != nil
		db.runlock()
		if !exists {
			return nil, fmt.Errorf("oid %d in %s: %w", r.OID, r.Table, ErrDanglingRef)
		}
		return v, nil // stored as boxed by the caller, like an in-range Str
	default:
		return nil, fmt.Errorf("unsupported declared type %T", t)
	}
}

func (db *DB) conformElems(c *Coll, typeName string, elem Type) (Value, error) {
	// Copy-on-write, mirroring the object case in conform.
	var elems []Value
	for i, ev := range c.Elems {
		cv, err := db.conform(ev, elem)
		if err != nil {
			return nil, fmt.Errorf("element %d: %w", i+1, err)
		}
		if elems == nil && cv != ev {
			elems = make([]Value, len(c.Elems))
			copy(elems, c.Elems[:i])
		}
		if elems != nil {
			elems[i] = cv
		}
	}
	if elems == nil && c.TypeName == typeName {
		return c, nil
	}
	if elems == nil {
		elems = c.Elems
	}
	return &Coll{TypeName: typeName, Elems: elems}, nil
}

func toStr(v Value) (string, error) {
	switch s := v.(type) {
	case Str:
		return string(s), nil
	case Num:
		return s.SQL(), nil
	default:
		return "", fmt.Errorf("%T for character type: %w", v, ErrTypeMismatch)
	}
}

// ParseDateString parses a date in one of the accepted layouts
// (ISO "2006-01-02", timestamped, or "02-Jan-2006").
func ParseDateString(s string) (DateVal, error) { return parseDate(s) }

func parseDate(s string) (DateVal, error) {
	for _, layout := range []string{"2006-01-02", "2006-01-02 15:04:05", "02-Jan-2006"} {
		if t, err := parseInLayout(layout, s); err == nil {
			return t, nil
		}
	}
	return DateVal{}, fmt.Errorf("string %q is not a date: %w", s, ErrTypeMismatch)
}
