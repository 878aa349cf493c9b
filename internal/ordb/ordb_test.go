package ordb

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func v4000() VarcharType { return VarcharType{Len: MaxOracleVarchar} }

// buildUniversityTypes creates the Oracle-9 style nested schema of the
// paper's Section 4.2 and returns the db.
func buildUniversityTypes(t *testing.T) *DB {
	t.Helper()
	db := New(ModeOracle9)
	mustType := func(ty Type, err error) Type {
		t.Helper()
		if err != nil {
			t.Fatalf("create type: %v", err)
		}
		return ty
	}
	subjArr := mustType(db.CreateVarrayType("TypeVA_Subject", 100, v4000()))
	prof := mustType(db.CreateObjectType("Type_Professor", []AttrDef{
		{Name: "attrPName", Type: v4000()},
		{Name: "attrSubject", Type: subjArr},
		{Name: "attrDept", Type: v4000()},
	}))
	profArr := mustType(db.CreateVarrayType("TypeVA_Professor", 100, prof))
	course := mustType(db.CreateObjectType("Type_Course", []AttrDef{
		{Name: "attrName", Type: v4000()},
		{Name: "attrProfessor", Type: profArr},
		{Name: "attrCreditPts", Type: v4000()},
	}))
	courseArr := mustType(db.CreateVarrayType("TypeVA_Course", 100, course))
	student := mustType(db.CreateObjectType("Type_Student", []AttrDef{
		{Name: "attrStudNr", Type: v4000()},
		{Name: "attrLName", Type: v4000()},
		{Name: "attrFName", Type: v4000()},
		{Name: "attrCourse", Type: courseArr},
	}))
	mustType(db.CreateVarrayType("TypeVA_Student", 100, student))
	return db
}

func sampleStudentValue() *Object {
	prof := &Object{TypeName: "Type_Professor", Attrs: []Value{
		Str("Kudrass"),
		&Coll{TypeName: "TypeVA_Subject", Elems: []Value{Str("Database Systems"), Str("Operat. Systems")}},
		Str("Computer Science"),
	}}
	course := &Object{TypeName: "Type_Course", Attrs: []Value{
		Str("Database Systems II"),
		&Coll{TypeName: "TypeVA_Professor", Elems: []Value{prof}},
		Str("4"),
	}}
	return &Object{TypeName: "Type_Student", Attrs: []Value{
		Str("23374"), Str("Conrad"), Str("Matthias"),
		&Coll{TypeName: "TypeVA_Course", Elems: []Value{course}},
	}}
}

func TestCreateNestedSchemaAndInsert(t *testing.T) {
	db := buildUniversityTypes(t)
	studArr, _ := db.Type("TypeVA_Student")
	tbl, err := db.CreateTable(TableSpec{
		Name: "TabUniversity",
		Columns: []Column{
			{Name: "attrStudyCourse", Type: v4000()},
			{Name: "attrStudent", Type: studArr},
		},
	})
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	_, err = tbl.Insert([]Value{
		Str("Computer Science"),
		&Coll{TypeName: "TypeVA_Student", Elems: []Value{sampleStudentValue()}},
	})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if tbl.RowCount() != 1 {
		t.Errorf("rows = %d", tbl.RowCount())
	}
	if got := db.Stats().Inserts; got != 1 {
		t.Errorf("stats.Inserts = %d, want 1 (single nested INSERT)", got)
	}
}

func TestNavigateDotPath(t *testing.T) {
	db := buildUniversityTypes(t)
	stud := sampleStudentValue()
	checked, err := db.conform(stud, mustT(db.Type("Type_Student")))
	if err != nil {
		t.Fatalf("conform: %v", err)
	}
	got, err := db.NavigatePath(checked, []string{"attrLName"})
	if err != nil || got != Str("Conrad") {
		t.Errorf("NavigatePath = %v, %v", got, err)
	}
	// Navigation into a collection must fail with an unnesting hint.
	_, err = db.NavigatePath(checked, []string{"attrCourse", "attrName"})
	if err == nil || !strings.Contains(err.Error(), "TABLE()") {
		t.Errorf("collection navigation error = %v", err)
	}
	// NULL propagates.
	stud2 := sampleStudentValue()
	stud2.Attrs[1] = Null{}
	checked2, _ := db.conform(stud2, mustT(db.Type("Type_Student")))
	got, err = db.NavigatePath(checked2, []string{"attrLName"})
	if err != nil || !IsNull(got) {
		t.Errorf("null path = %v, %v", got, err)
	}
}

// TestCatalogLookupFolds: catalog lookups are case-insensitive with
// strings.ToUpper semantics, non-ASCII names included, and an ASCII
// lookup (every navigation step resolves its object type by name)
// allocates nothing.
func TestCatalogLookupFolds(t *testing.T) {
	db := buildUniversityTypes(t)
	for _, name := range []string{"Type_Student", "type_student", "TYPE_STUDENT"} {
		if ty, err := db.Type(name); err != nil || NamedType(ty) != "Type_Student" {
			t.Errorf("Type(%q) = %v, %v", name, ty, err)
		}
	}
	if _, err := db.Type("Type_Studentx"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Type of a missing name: %v", err)
	}
	if _, err := db.CreateObjectType("Typ_Émile", []AttrDef{{Name: "a", Type: v4000()}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Type("typ_émile"); err != nil {
		t.Errorf("non-ASCII name does not fold: %v", err)
	}
	long := strings.Repeat("x", 2*foldBuf)
	if _, err := db.Type(long); !errors.Is(err, ErrNotFound) {
		t.Errorf("Type of an over-long name: %v", err)
	}
	stud, err := db.conform(sampleStudentValue(), mustT(db.Type("Type_Student")))
	if err != nil {
		t.Fatal(err)
	}
	path := []string{"attrCourse"}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := db.NavigatePath(stud, path); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("NavigatePath allocates %.0f times per call", n)
	}
}

func mustT(t Type, err error) Type {
	if err != nil {
		panic(err)
	}
	return t
}

func TestOracle8RejectsNestedCollections(t *testing.T) {
	db := New(ModeOracle8)
	inner, err := db.CreateVarrayType("TypeVA_Subject", 5, v4000())
	if err != nil {
		t.Fatalf("flat VARRAY must work in Oracle8: %v", err)
	}
	_, err = db.CreateVarrayType("TypeVA_Nested", 5, inner)
	if !errors.Is(err, ErrNestedCollection) {
		t.Errorf("nested VARRAY error = %v, want ErrNestedCollection", err)
	}
	_, err = db.CreateNestedTableType("Type_TabNested", inner)
	if !errors.Is(err, ErrNestedCollection) {
		t.Errorf("nested TABLE OF error = %v, want ErrNestedCollection", err)
	}
	_, err = db.CreateVarrayType("TypeVA_Lob", 5, CLOBType{})
	if !errors.Is(err, ErrNestedCollection) {
		t.Errorf("VARRAY of CLOB error = %v, want ErrNestedCollection", err)
	}
}

func TestOracle9AllowsNestedCollections(t *testing.T) {
	db := New(ModeOracle9)
	inner, _ := db.CreateVarrayType("TypeVA_Subject", 5, v4000())
	if _, err := db.CreateVarrayType("TypeVA_Nested", 5, inner); err != nil {
		t.Errorf("Oracle9 must accept nested collections: %v", err)
	}
}

func TestIdentifierLengthLimit(t *testing.T) {
	db := New(ModeOracle9)
	long := strings.Repeat("X", MaxIdentLen+1)
	if _, err := db.CreateObjectType(long, nil); !errors.Is(err, ErrIdentTooLong) {
		t.Errorf("long type name error = %v", err)
	}
	if _, err := db.CreateTable(TableSpec{Name: long, Columns: []Column{{Name: "a", Type: v4000()}}}); !errors.Is(err, ErrIdentTooLong) {
		t.Errorf("long table name error = %v", err)
	}
	ok := strings.Repeat("X", MaxIdentLen)
	if _, err := db.CreateObjectType(ok, nil); err != nil {
		t.Errorf("30-char name must work: %v", err)
	}
}

func TestDuplicateNamesRejected(t *testing.T) {
	db := New(ModeOracle9)
	if _, err := db.CreateObjectType("T", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateObjectType("t", nil); !errors.Is(err, ErrExists) {
		t.Errorf("case-insensitive duplicate type = %v", err)
	}
	if _, err := db.CreateTable(TableSpec{Name: "Tab", Columns: []Column{{Name: "a", Type: v4000()}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(TableSpec{Name: "TAB", Columns: []Column{{Name: "a", Type: v4000()}}}); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate table = %v", err)
	}
}

func TestForwardDeclarationCycle(t *testing.T) {
	// Section 6.2: CREATE TYPE Type_Professor; then a table of REFs, then
	// the full definitions.
	db := New(ModeOracle9)
	profFwd, err := db.DeclareType("Type_Professor")
	if err != nil {
		t.Fatalf("DeclareType: %v", err)
	}
	refProf := &RefType{Target: profFwd}
	refTab, err := db.CreateNestedTableType("TabRefProfessor", refProf)
	if err != nil {
		t.Fatalf("TABLE OF REF to incomplete type must work: %v", err)
	}
	dept, err := db.CreateObjectType("Type_Dept", []AttrDef{
		{Name: "attrDName", Type: v4000()},
		{Name: "attrProfessor", Type: refTab},
	})
	if err != nil {
		t.Fatalf("Type_Dept: %v", err)
	}
	// Completing the forward declaration must update in place.
	prof, err := db.CreateObjectType("Type_Professor", []AttrDef{
		{Name: "attrPName", Type: v4000()},
		{Name: "attrDept", Type: dept},
	})
	if err != nil {
		t.Fatalf("completing type: %v", err)
	}
	if prof != profFwd {
		t.Error("completion must reuse the forward-declared type object")
	}
	if prof.Incomplete {
		t.Error("type still incomplete")
	}
	// An object table over the completed type and a REF round trip.
	tab, err := db.CreateTable(TableSpec{Name: "TabProfessor", OfType: "Type_Professor"})
	if err != nil {
		t.Fatalf("object table: %v", err)
	}
	oid, err := tab.Insert([]Value{Str("Kudrass"), &Object{TypeName: "Type_Dept", Attrs: []Value{
		Str("CS"), &Coll{TypeName: "TabRefProfessor", Elems: nil},
	}}})
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	if oid == 0 {
		t.Fatal("object table row must get an OID")
	}
	oid2, err := tab.Insert([]Value{Str("Jaeger"), &Object{TypeName: "Type_Dept", Attrs: []Value{
		Str("CS"), &Coll{TypeName: "TabRefProfessor", Elems: []Value{Ref{Table: "TabProfessor", OID: oid}}},
	}}})
	if err != nil {
		t.Fatalf("insert with ref: %v", err)
	}
	obj, err := db.FetchByOID("TabProfessor", oid2)
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	refs := obj.Attrs[1].(*Object).Attrs[1].(*Coll)
	target, err := db.Deref(refs.Elems[0])
	if err != nil {
		t.Fatalf("deref: %v", err)
	}
	if target.Attrs[0] != Str("Kudrass") {
		t.Errorf("deref landed on %v", target.Attrs[0])
	}
}

func TestIncompleteTypeUnusableDirectly(t *testing.T) {
	db := New(ModeOracle9)
	fwd, _ := db.DeclareType("T")
	if _, err := db.CreateObjectType("U", []AttrDef{{Name: "a", Type: fwd}}); !errors.Is(err, ErrIncompleteType) {
		t.Errorf("attribute of incomplete type = %v", err)
	}
	if _, err := db.CreateTable(TableSpec{Name: "TabT", OfType: "T"}); !errors.Is(err, ErrIncompleteType) {
		t.Errorf("object table of incomplete type = %v", err)
	}
}

func TestNotNullAndPrimaryKey(t *testing.T) {
	db := New(ModeOracle9)
	prof, _ := db.CreateObjectType("Type_Professor", []AttrDef{
		{Name: "PName", Type: VarcharType{Len: 80}},
		{Name: "Subject", Type: VarcharType{Len: 120}},
	})
	_ = prof
	tab, err := db.CreateTable(TableSpec{
		Name:   "TabProfessor",
		OfType: "Type_Professor",
		Columns: []Column{
			{Name: "PName", PrimaryKey: true},
			{Name: "Subject", NotNull: true},
		},
	})
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if _, err := tab.Insert([]Value{Str("Jaeger"), Str("CAD")}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if _, err := tab.Insert([]Value{Str("Jaeger"), Str("CAE")}); !errors.Is(err, ErrPrimaryKey) {
		t.Errorf("duplicate PK = %v", err)
	}
	if _, err := tab.Insert([]Value{Null{}, Str("CAD")}); !errors.Is(err, ErrPrimaryKey) {
		t.Errorf("NULL PK = %v", err)
	}
	if _, err := tab.Insert([]Value{Str("Kudrass"), Null{}}); !errors.Is(err, ErrNotNull) {
		t.Errorf("NULL in NOT NULL = %v", err)
	}
}

func TestNotNullOnCollectionRejected(t *testing.T) {
	// Section 4.3: "NOT NULL constraints cannot be applied to collection
	// types."
	db := New(ModeOracle9)
	arr, _ := db.CreateVarrayType("A", 5, v4000())
	_, err := db.CreateTable(TableSpec{Name: "T", Columns: []Column{
		{Name: "c", Type: arr, NotNull: true},
	}})
	if err == nil {
		t.Error("NOT NULL on a collection column must be rejected")
	}
}

// pathCheck implements CheckExpr for tests: path IS NOT NULL.
type pathCheck struct {
	db   *DB
	path []string
}

func (c pathCheck) Eval(row RowView) (bool, error) {
	v, ok := row.Col(c.path[0])
	if !ok {
		return false, errors.New("no such column")
	}
	got, err := c.db.NavigatePath(v, c.path[1:])
	if err != nil {
		return false, err
	}
	return !IsNull(got), nil
}

func (c pathCheck) String() string { return strings.Join(c.path, ".") + " IS NOT NULL" }

// TestCheckConstraintPaperScenario reproduces the Section 4.3 example:
// CHECK (attrAddress.attrStreet IS NOT NULL) rejects an address without a
// street (desired) AND rejects a row without any address (the paper's
// "non-desired error message").
func TestCheckConstraintPaperScenario(t *testing.T) {
	db := New(ModeOracle9)
	addr, _ := db.CreateObjectType("Type_Address", []AttrDef{
		{Name: "attrStreet", Type: v4000()},
		{Name: "attrCity", Type: v4000()},
	})
	_, err := db.CreateObjectType("Type_Course", []AttrDef{
		{Name: "attrName", Type: v4000()},
		{Name: "attrAddress", Type: addr},
	})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := db.CreateTable(TableSpec{
		Name:    "TabCourse",
		OfType:  "Type_Course",
		Columns: []Column{{Name: "attrName", NotNull: true}},
		Checks:  []CheckExpr{pathCheck{db: db, path: []string{"attrAddress", "attrStreet"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Address with city but no street: desired error.
	_, err = tab.Insert([]Value{Str("CAD Intro"),
		&Object{TypeName: "Type_Address", Attrs: []Value{Null{}, Str("Leipzig")}}})
	if !errors.Is(err, ErrCheck) {
		t.Errorf("street-less address = %v, want ErrCheck", err)
	}
	// No address at all: per the paper this ALSO fails — the non-desired
	// error that makes CHECK unusable for optional complex elements.
	_, err = tab.Insert([]Value{Str("Operating Systems"), Null{}})
	if !errors.Is(err, ErrCheck) {
		t.Errorf("NULL address = %v, want ErrCheck (the paper's non-desired error)", err)
	}
	// Complete address: accepted.
	if _, err := tab.Insert([]Value{Str("DB II"),
		&Object{TypeName: "Type_Address", Attrs: []Value{Str("Main St"), Str("Leipzig")}}}); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
}

func TestVarrayOverflow(t *testing.T) {
	db := New(ModeOracle9)
	arr, _ := db.CreateVarrayType("TypeVA_Subject", 2, v4000())
	tab, _ := db.CreateTable(TableSpec{Name: "T", Columns: []Column{{Name: "s", Type: arr}}})
	_, err := tab.Insert([]Value{&Coll{Elems: []Value{Str("a"), Str("b"), Str("c")}}})
	if !errors.Is(err, ErrVarrayOverflow) {
		t.Errorf("overflow = %v", err)
	}
	if _, err := tab.Insert([]Value{&Coll{Elems: []Value{Str("a"), Str("b")}}}); err != nil {
		t.Errorf("at-limit insert rejected: %v", err)
	}
}

func TestNestedTableRequiresStoreAs(t *testing.T) {
	db := New(ModeOracle9)
	nt, _ := db.CreateNestedTableType("Type_TabSubject", v4000())
	_, err := db.CreateTable(TableSpec{Name: "T", Columns: []Column{{Name: "s", Type: nt}}})
	if err == nil || !strings.Contains(err.Error(), "STORE AS") {
		t.Errorf("missing STORE AS = %v", err)
	}
	tab, err := db.CreateTable(TableSpec{
		Name:          "T2",
		Columns:       []Column{{Name: "s", Type: nt}},
		NestedStorage: map[string]string{"S": "TabSubject_List"},
	})
	if err != nil {
		t.Fatalf("with STORE AS: %v", err)
	}
	if _, err := tab.Insert([]Value{&Coll{Elems: []Value{Str("DB"), Str("OS")}}}); err != nil {
		t.Errorf("nested table insert: %v", err)
	}
	_, _, _, storage := db.SchemaObjectCount()
	if storage != 1 {
		t.Errorf("storage tables = %d, want 1", storage)
	}
}

func TestValueTooLong(t *testing.T) {
	db := New(ModeOracle9)
	tab, _ := db.CreateTable(TableSpec{Name: "T", Columns: []Column{{Name: "s", Type: VarcharType{Len: 5}}}})
	_, err := tab.Insert([]Value{Str("123456")})
	if !errors.Is(err, ErrValueTooLong) {
		t.Errorf("overlong = %v", err)
	}
	// CLOB has no limit — the Section 7 recommendation for text chunks.
	tab2, _ := db.CreateTable(TableSpec{Name: "T2", Columns: []Column{{Name: "s", Type: CLOBType{}}}})
	if _, err := tab2.Insert([]Value{Str(strings.Repeat("x", 100000))}); err != nil {
		t.Errorf("CLOB insert: %v", err)
	}
}

func TestTypeCoercions(t *testing.T) {
	db := New(ModeOracle9)
	tab, _ := db.CreateTable(TableSpec{Name: "T", Columns: []Column{
		{Name: "n", Type: NumberType{}},
		{Name: "i", Type: IntegerType{}},
		{Name: "d", Type: DateType{}},
		{Name: "c", Type: CharType{Len: 4}},
	}})
	if _, err := tab.Insert([]Value{Str("3.5"), Num(42), Str("2002-03-25"), Str("ab")}); err != nil {
		t.Fatalf("coercions: %v", err)
	}
	var row *Row
	tab.Scan(func(r *Row) bool { row = r; return false })
	if row.Vals[0] != Num(3.5) {
		t.Errorf("n = %v", row.Vals[0])
	}
	if row.Vals[3] != Str("ab  ") {
		t.Errorf("CHAR not blank-padded: %q", row.Vals[3])
	}
	if _, err := tab.Insert([]Value{Str("abc"), Num(1), Null{}, Null{}}); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("non-numeric string = %v", err)
	}
	if _, err := tab.Insert([]Value{Num(1), Num(1.5), Null{}, Null{}}); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("fractional integer = %v", err)
	}
	if _, err := tab.Insert([]Value{Num(1), Num(1), Str("not a date"), Null{}}); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("bad date = %v", err)
	}
}

func TestConstructorTypeMismatch(t *testing.T) {
	db := buildUniversityTypes(t)
	studT, _ := db.Type("Type_Student")
	tab, _ := db.CreateTable(TableSpec{Name: "T", Columns: []Column{{Name: "s", Type: studT}}})
	// Wrong constructor name.
	_, err := tab.Insert([]Value{&Object{TypeName: "Type_Professor", Attrs: []Value{Str("x"), Null{}, Str("y")}}})
	if !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("wrong constructor = %v", err)
	}
	// Wrong arity.
	_, err = tab.Insert([]Value{&Object{TypeName: "Type_Student", Attrs: []Value{Str("x")}}})
	if !errors.Is(err, ErrArity) {
		t.Errorf("wrong arity = %v", err)
	}
}

func TestInsertArity(t *testing.T) {
	db := New(ModeOracle9)
	tab, _ := db.CreateTable(TableSpec{Name: "T", Columns: []Column{{Name: "a", Type: v4000()}}})
	if _, err := tab.Insert([]Value{Str("x"), Str("y")}); !errors.Is(err, ErrArity) {
		t.Errorf("arity = %v", err)
	}
}

func TestScopeFor(t *testing.T) {
	db := New(ModeOracle9)
	p, _ := db.CreateObjectType("Type_P", []AttrDef{{Name: "a", Type: v4000()}})
	tabA, _ := db.CreateTable(TableSpec{Name: "TabA", OfType: "Type_P"})
	tabB, _ := db.CreateTable(TableSpec{Name: "TabB", OfType: "Type_P"})
	oidA, _ := tabA.Insert([]Value{Str("in A")})
	oidB, _ := tabB.Insert([]Value{Str("in B")})
	scoped, err := db.CreateTable(TableSpec{Name: "TabScoped", Columns: []Column{
		{Name: "r", Type: &RefType{Target: p}, Scope: "TabA"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scoped.Insert([]Value{Ref{Table: "TabA", OID: oidA}}); err != nil {
		t.Errorf("in-scope ref rejected: %v", err)
	}
	if _, err := scoped.Insert([]Value{Ref{Table: "TabB", OID: oidB}}); !errors.Is(err, ErrScope) {
		t.Errorf("out-of-scope ref = %v", err)
	}
	if _, err := scoped.Insert([]Value{Null{}}); err != nil {
		t.Errorf("NULL ref must pass scope: %v", err)
	}
}

func TestDanglingRefRejected(t *testing.T) {
	db := New(ModeOracle9)
	p, _ := db.CreateObjectType("Type_P", []AttrDef{{Name: "a", Type: v4000()}})
	db.CreateTable(TableSpec{Name: "TabP", OfType: "Type_P"})
	tab, _ := db.CreateTable(TableSpec{Name: "T", Columns: []Column{{Name: "r", Type: &RefType{Target: p}}}})
	if _, err := tab.Insert([]Value{Ref{Table: "TabP", OID: 999}}); !errors.Is(err, ErrDanglingRef) {
		t.Errorf("dangling ref = %v", err)
	}
}

func TestDropTypeDependencies(t *testing.T) {
	db := buildUniversityTypes(t)
	// Type_Professor is used by TypeVA_Professor: plain drop must fail.
	err := db.DropType("Type_Professor", false)
	if !errors.Is(err, ErrDependentTypes) {
		t.Fatalf("drop with dependents = %v", err)
	}
	// FORCE cascades: everything depending on Type_Professor goes away.
	if err := db.DropType("Type_Professor", true); err != nil {
		t.Fatalf("drop force: %v", err)
	}
	if _, err := db.Type("TypeVA_Professor"); !errors.Is(err, ErrNotFound) {
		t.Errorf("dependent VARRAY survived: %v", err)
	}
	if _, err := db.Type("Type_Course"); !errors.Is(err, ErrNotFound) {
		t.Errorf("transitive dependent survived: %v", err)
	}
	if _, err := db.Type("TypeVA_Subject"); err != nil {
		t.Errorf("independent type dropped: %v", err)
	}
}

func TestDropTypeCascadesToTables(t *testing.T) {
	db := New(ModeOracle9)
	db.CreateObjectType("Type_P", []AttrDef{{Name: "a", Type: v4000()}})
	db.CreateTable(TableSpec{Name: "TabP", OfType: "Type_P"})
	if err := db.DropType("Type_P", true); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Table("TabP"); !errors.Is(err, ErrNotFound) {
		t.Errorf("table over dropped type survived: %v", err)
	}
}

func TestDeleteRows(t *testing.T) {
	db := New(ModeOracle9)
	tab, _ := db.CreateTable(TableSpec{Name: "T", Columns: []Column{{Name: "a", Type: v4000()}}})
	for _, s := range []string{"x", "y", "z"} {
		tab.Insert([]Value{Str(s)})
	}
	n, err := tab.Delete(func(r *Row) (bool, error) { return r.Vals[0] == Str("y"), nil })
	if err != nil || n != 1 {
		t.Fatalf("Delete = %d, %v", n, err)
	}
	if tab.RowCount() != 2 {
		t.Errorf("rows = %d", tab.RowCount())
	}
	n, _ = tab.Delete(nil)
	if n != 2 || tab.RowCount() != 0 {
		t.Errorf("delete all = %d, rows = %d", n, tab.RowCount())
	}
}

func TestViews(t *testing.T) {
	db := New(ModeOracle9)
	if _, err := db.CreateView("OView_U", "SELECT 1", nil, false); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateView("OView_U", "SELECT 2", nil, false); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate view = %v", err)
	}
	if _, err := db.CreateView("OView_U", "SELECT 2", nil, true); err != nil {
		t.Errorf("OR REPLACE = %v", err)
	}
	v, err := db.View("oview_u")
	if err != nil || v.Definition != "SELECT 2" {
		t.Errorf("View = %+v, %v", v, err)
	}
	if got := db.ViewNames(); len(got) != 1 {
		t.Errorf("ViewNames = %v", got)
	}
	if err := db.DropView("OView_U"); err != nil {
		t.Errorf("DropView: %v", err)
	}
	if _, err := db.View("OView_U"); !errors.Is(err, ErrNotFound) {
		t.Errorf("dropped view lookup = %v", err)
	}
}

func TestValueSQLRendering(t *testing.T) {
	stud := sampleStudentValue()
	sql := stud.SQL()
	for _, want := range []string{"Type_Student(", "TypeVA_Course(", "'Conrad'", "'Database Systems II'"} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL() missing %q in %s", want, sql)
		}
	}
	if got := (Str("O'Brien")).SQL(); got != "'O''Brien'" {
		t.Errorf("quote doubling = %q", got)
	}
	if got := (Null{}).SQL(); got != "NULL" {
		t.Errorf("NULL = %q", got)
	}
	d := DateVal(time.Date(2002, 3, 25, 0, 0, 0, 0, time.UTC))
	if got := d.SQL(); got != "DATE '2002-03-25'" {
		t.Errorf("date = %q", got)
	}
}

func TestDeepEqualAndClone(t *testing.T) {
	a := sampleStudentValue()
	b := sampleStudentValue()
	if !DeepEqual(a, b) {
		t.Error("identical structures not equal")
	}
	c := CloneValue(a).(*Object)
	if !DeepEqual(a, c) {
		t.Error("clone differs")
	}
	// Mutating the clone must not affect the original.
	c.Attrs[1] = Str("changed")
	if DeepEqual(a, c) {
		t.Error("clone aliases original")
	}
	if !DeepEqual(Null{}, Null{}) {
		t.Error("NULL != NULL at Go level")
	}
	if DeepEqual(Null{}, Str("")) {
		t.Error("NULL == empty string")
	}
}

func TestCompare(t *testing.T) {
	if c, err := Compare(Str("a"), Str("b")); err != nil || c >= 0 {
		t.Errorf("Compare strings = %d, %v", c, err)
	}
	if c, err := Compare(Num(2), Num(1)); err != nil || c <= 0 {
		t.Errorf("Compare nums = %d, %v", c, err)
	}
	if _, err := Compare(Str("a"), Num(1)); err == nil {
		t.Error("cross-kind compare must fail")
	}
}

// TestQuickCloneRoundTrip property-tests that CloneValue output is always
// DeepEqual to its input for arbitrary scalar trees.
func TestQuickCloneRoundTrip(t *testing.T) {
	f := func(ss []string, nested bool) bool {
		elems := make([]Value, len(ss))
		for i, s := range ss {
			elems[i] = Str(s)
		}
		var v Value = &Coll{TypeName: "T", Elems: elems}
		if nested {
			v = &Object{TypeName: "O", Attrs: []Value{v, Null{}}}
		}
		return DeepEqual(v, CloneValue(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickVarcharLimit property-tests the length check boundary.
func TestQuickVarcharLimit(t *testing.T) {
	db := New(ModeOracle9)
	tab, _ := db.CreateTable(TableSpec{Name: "T", Columns: []Column{{Name: "s", Type: VarcharType{Len: 10}}}})
	f := func(s string) bool {
		_, err := tab.Insert([]Value{Str(s)})
		if len(s) <= 10 {
			return err == nil
		}
		return errors.Is(err, ErrValueTooLong)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStatsCounters(t *testing.T) {
	db := New(ModeOracle9)
	tab, _ := db.CreateTable(TableSpec{Name: "T", Columns: []Column{{Name: "a", Type: v4000()}}})
	tab.Insert([]Value{Str("x")})
	tab.Insert([]Value{Str("y")})
	tab.Scan(func(*Row) bool { return true })
	s := db.Stats()
	if s.Inserts != 2 || s.RowsScanned != 2 {
		t.Errorf("stats = %+v", s)
	}
	db.ResetStats()
	if s := db.Stats(); s.Inserts != 0 {
		t.Errorf("reset failed: %+v", s)
	}
}

func TestSchemaObjectCount(t *testing.T) {
	db := buildUniversityTypes(t)
	types, tables, views, _ := db.SchemaObjectCount()
	if types != 7 {
		t.Errorf("types = %d, want 7", types)
	}
	if tables != 0 || views != 0 {
		t.Errorf("tables/views = %d/%d", tables, views)
	}
}

func TestTypeNamesOrder(t *testing.T) {
	db := buildUniversityTypes(t)
	names := db.TypeNames()
	if len(names) != 7 || names[0] != "TypeVA_Subject" {
		t.Errorf("TypeNames = %v", names)
	}
}

func TestModeString(t *testing.T) {
	if ModeOracle8.String() != "Oracle8" || ModeOracle9.String() != "Oracle9" {
		t.Error("mode names wrong")
	}
}

func TestTypeKindStrings(t *testing.T) {
	if KindVarray.String() != "VARRAY" || KindNestedTable.String() != "NESTED TABLE" {
		t.Error("kind names wrong")
	}
	if (VarcharType{Len: 10}).SQL() != "VARCHAR(10)" {
		t.Error("varchar SQL wrong")
	}
	if (CLOBType{}).SQL() != "CLOB" {
		t.Error("clob SQL wrong")
	}
}

func TestMiscAccessors(t *testing.T) {
	db := New(ModeOracle8)
	if db.Mode() != ModeOracle8 {
		t.Error("Mode accessor wrong")
	}
	db.CreateTable(TableSpec{Name: "A", Columns: []Column{{Name: "x", Type: v4000()}}})
	db.CreateTable(TableSpec{Name: "B", Columns: []Column{{Name: "x", Type: v4000()}}})
	names := db.TableNames()
	if len(names) != 2 || names[0] != "A" || names[1] != "B" {
		t.Errorf("TableNames = %v", names)
	}
	if err := db.DropTable("A"); err != nil {
		t.Errorf("DropTable: %v", err)
	}
	if err := db.DropTable("A"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double drop = %v", err)
	}
	if got := db.TableNames(); len(got) != 1 || got[0] != "B" {
		t.Errorf("TableNames after drop = %v", got)
	}
}

func TestParsePathHelper(t *testing.T) {
	if got := ParsePath("a.b.c"); len(got) != 3 || got[1] != "b" {
		t.Errorf("ParsePath = %v", got)
	}
	if got := ParsePath(""); got != nil {
		t.Errorf("empty = %v", got)
	}
}

func TestTypeSQLRenderings(t *testing.T) {
	db := New(ModeOracle9)
	ot, _ := db.CreateObjectType("T", []AttrDef{{Name: "a", Type: v4000()}})
	va, _ := db.CreateVarrayType("VA", 5, v4000())
	nt, _ := db.CreateNestedTableType("NT", v4000())
	cases := map[string]string{
		(CharType{Len: 3}).SQL():     "CHAR(3)",
		(NumberType{}).SQL():         "NUMBER",
		(IntegerType{}).SQL():        "INTEGER",
		(DateType{}).SQL():           "DATE",
		ot.SQL():                     "T",
		va.SQL():                     "VA",
		nt.SQL():                     "NT",
		(&RefType{Target: ot}).SQL(): "REF T",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("SQL() = %q, want %q", got, want)
		}
	}
	if !IsLOB(CLOBType{}) || IsLOB(NumberType{}) {
		t.Error("IsLOB wrong")
	}
	if ElemType(va).SQL() != "VARCHAR(4000)" || ElemType(nt) == nil || ElemType(ot) != nil {
		t.Error("ElemType wrong")
	}
	if ot.Attr("a") == nil || ot.Attr("A") == nil || ot.Attr("z") != nil {
		t.Error("Attr lookup wrong")
	}
}

func TestOracle8TransitiveCollectionRestriction(t *testing.T) {
	// An object type transitively containing a collection cannot be a
	// collection element in Oracle 8 — the rule forcing the paper's REF
	// workaround for set-valued complex elements.
	db := New(ModeOracle8)
	inner, _ := db.CreateVarrayType("VA", 5, v4000())
	withColl, _ := db.CreateObjectType("WithColl", []AttrDef{{Name: "c", Type: inner}})
	if _, err := db.CreateVarrayType("Outer", 5, withColl); !errors.Is(err, ErrNestedCollection) {
		t.Errorf("object-with-collection element = %v", err)
	}
	// An object type holding only a REF is fine (REF breaks the chain).
	target, _ := db.CreateObjectType("Target", []AttrDef{{Name: "a", Type: v4000()}})
	withRef, _ := db.CreateObjectType("WithRef", []AttrDef{{Name: "r", Type: &RefType{Target: target}}})
	if _, err := db.CreateVarrayType("Outer2", 5, withRef); err != nil {
		t.Errorf("object-with-ref element rejected: %v", err)
	}
	// Deep nesting through two object levels is also detected.
	mid, _ := db.CreateObjectType("Mid", []AttrDef{{Name: "w", Type: withColl}})
	if _, err := db.CreateNestedTableType("Outer3", mid); !errors.Is(err, ErrNestedCollection) {
		t.Errorf("transitive collection element = %v", err)
	}
}

func TestValueSQLScalars(t *testing.T) {
	if (Num(2.5)).SQL() != "2.5" {
		t.Errorf("Num SQL = %q", Num(2.5).SQL())
	}
	r := Ref{Table: "T", OID: 7}
	if r.SQL() != "REF(T:7)" {
		t.Errorf("Ref SQL = %q", r.SQL())
	}
	if FormatValue(Null{}) != "NULL" || FormatValue(nil) != "NULL" {
		t.Error("FormatValue NULL wrong")
	}
	if FormatValue(Num(3)) != "3" {
		t.Errorf("FormatValue Num = %q", FormatValue(Num(3)))
	}
	d, err := ParseDateString("25-Mar-2002")
	if err != nil {
		t.Fatalf("ParseDateString: %v", err)
	}
	if FormatValue(d) != "2002-03-25" {
		t.Errorf("date format = %q", FormatValue(d))
	}
	if _, err := ParseDateString("bogus"); err == nil {
		t.Error("bad date accepted")
	}
}

func TestDerefErrors(t *testing.T) {
	db := New(ModeOracle9)
	if o, err := db.Deref(Null{}); err != nil || o != nil {
		t.Errorf("Deref(NULL) = %v, %v", o, err)
	}
	if _, err := db.Deref(Str("x")); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("Deref(non-ref) = %v", err)
	}
	if _, err := db.Deref(Ref{Table: "Missing", OID: 1}); err == nil {
		t.Error("Deref into missing table accepted")
	}
}

// NavigatePath walks a whole dot-notation path with NavigateStep; a NULL
// anywhere along it yields NULL.
func (db *DB) NavigatePath(v Value, path []string) (Value, error) {
	for _, step := range path {
		if IsNull(v) {
			return Null{}, nil
		}
		var slot AttrSlot
		var err error
		if v, err = db.NavigateStep(v, step, &slot); err != nil {
			return nil, err
		}
	}
	if v == nil {
		return Null{}, nil
	}
	return v, nil
}
