// Package xpath substantiates the paper's Section 7 advantage claim:
// "simple database queries by using dot notation, tight correspondence
// with XPath expressions". It translates a practical XPath subset —
// absolute child paths with attribute, child-value and positional
// predicates — into SQL over a generated object-relational schema:
// single-valued steps become dot navigation, set-valued steps become
// TABLE() unnesting, attribute tests navigate into the TypeAttrL_
// objects.
//
// Supported grammar:
//
//	path      := '/' step ( '/' step )* ( '/' '@' name )?
//	step      := name predicate*
//	predicate := '[' '@' name '=' literal ']'
//	           | '[' name '=' literal ']'
//	           | '[' number ']'
//	literal   := '"' ... '"' | '\” ... '\”
package xpath

import (
	"fmt"
	"strconv"
	"strings"

	"xmlordb/internal/mapping"
)

// Step is one location step of a parsed path.
type Step struct {
	// Name is the element name; "@name" selects an attribute in final
	// position (stored in Attr instead).
	Name string
	// Preds are the step's predicates.
	Preds []Pred
}

// Pred is one predicate.
type Pred struct {
	// Attr is the attribute name for [@a='v'] predicates.
	Attr string
	// Child is the child element name for [c='v'] predicates.
	Child string
	// Value is the comparison literal.
	Value string
	// Pos is a 1-based positional predicate ([n]); 0 when unset.
	Pos int
}

// Path is a parsed absolute XPath.
type Path struct {
	Steps []Step
	// Attr selects a final attribute value ("" = element content).
	Attr string
}

// ParsePath parses an absolute XPath of the supported subset.
func ParsePath(src string) (*Path, error) {
	if !strings.HasPrefix(src, "/") {
		return nil, fmt.Errorf("xpath: only absolute paths are supported")
	}
	p := &parser{src: src, pos: 1}
	out := &Path{}
	for {
		if p.pos < len(p.src) && p.src[p.pos] == '@' {
			p.pos++
			name := p.name()
			if name == "" || p.pos != len(p.src) {
				return nil, p.errf("attribute selector must terminate the path")
			}
			out.Attr = name
			return out, nil
		}
		step, err := p.step()
		if err != nil {
			return nil, err
		}
		out.Steps = append(out.Steps, step)
		if p.pos >= len(p.src) {
			return out, nil
		}
		if p.src[p.pos] != '/' {
			return nil, p.errf("expected '/'")
		}
		p.pos++
	}
}

type parser struct {
	src string
	pos int
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("xpath: position %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *parser) name() string {
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '/' || c == '[' || c == ']' || c == '=' || c == '@' {
			break
		}
		p.pos++
	}
	return p.src[start:p.pos]
}

func (p *parser) step() (Step, error) {
	s := Step{Name: p.name()}
	if s.Name == "" {
		return s, p.errf("expected element name")
	}
	for p.pos < len(p.src) && p.src[p.pos] == '[' {
		p.pos++
		pred, err := p.predicate()
		if err != nil {
			return s, err
		}
		s.Preds = append(s.Preds, pred)
		if p.pos >= len(p.src) || p.src[p.pos] != ']' {
			return s, p.errf("expected ']'")
		}
		p.pos++
	}
	return s, nil
}

func (p *parser) predicate() (Pred, error) {
	var pred Pred
	if p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
		start := p.pos
		for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
			p.pos++
		}
		n, err := strconv.Atoi(p.src[start:p.pos])
		if err != nil || n < 1 {
			return pred, p.errf("bad position")
		}
		pred.Pos = n
		return pred, nil
	}
	isAttr := false
	if p.pos < len(p.src) && p.src[p.pos] == '@' {
		isAttr = true
		p.pos++
	}
	name := p.name()
	if name == "" {
		return pred, p.errf("expected name in predicate")
	}
	if p.pos >= len(p.src) || p.src[p.pos] != '=' {
		return pred, p.errf("expected '=' in predicate")
	}
	p.pos++
	if p.pos >= len(p.src) || (p.src[p.pos] != '\'' && p.src[p.pos] != '"') {
		return pred, p.errf("expected quoted literal")
	}
	q := p.src[p.pos]
	p.pos++
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != q {
		p.pos++
	}
	if p.pos >= len(p.src) {
		return pred, p.errf("unterminated literal")
	}
	pred.Value = p.src[start:p.pos]
	p.pos++
	if isAttr {
		pred.Attr = name
	} else {
		pred.Child = name
	}
	return pred, nil
}

// Translate compiles the XPath against a generated schema into a SELECT
// statement. The first step must be the schema's root element. The result
// selects the string value of the final step (or attribute).
func Translate(sch *mapping.Schema, src string) (string, error) {
	path, err := ParsePath(src)
	if err != nil {
		return "", err
	}
	if len(path.Steps) == 0 {
		return "", fmt.Errorf("xpath: empty path")
	}
	if path.Steps[0].Name != sch.RootElem {
		return "", fmt.Errorf("xpath: path starts at %q, schema root is %q",
			path.Steps[0].Name, sch.RootElem)
	}
	tr := &translator{sch: sch}
	return tr.run(path)
}

type translator struct {
	sch   *mapping.Schema
	from  []string
	where []string
	alias int
}

func (tr *translator) newAlias() string {
	tr.alias++
	return fmt.Sprintf("x%d", tr.alias)
}

// run walks the steps, maintaining the "current" SQL expression prefix
// that denotes the step's element value.
func (tr *translator) run(path *Path) (string, error) {
	root := tr.sch.Elems[path.Steps[0].Name]
	if root.StoredByRef {
		return "", fmt.Errorf("xpath: REF-stored schemas are not supported by the translator")
	}
	alias := tr.newAlias()
	tr.from = append(tr.from, tr.sch.RootTable+" "+alias)
	cur := alias // SQL prefix denoting the current element
	curElem := root
	if err := tr.applyPreds(cur, curElem, path.Steps[0].Preds); err != nil {
		return "", err
	}
	for _, step := range path.Steps[1:] {
		f := fieldFor(curElem, step.Name)
		if f == nil {
			return "", fmt.Errorf("xpath: %s has no child %s", curElem.Name, step.Name)
		}
		childElem := tr.sch.Elems[step.Name]
		switch {
		case f.Kind == mapping.FieldSimpleChild || f.Kind == mapping.FieldMixedText:
			// Terminal-ish: simple children have no further structure.
			if f.SetValued {
				a := tr.newAlias()
				tr.from = append(tr.from, fmt.Sprintf("TABLE(%s.%s) %s", cur, f.DBName, a))
				cur = a + ".COLUMN_VALUE"
			} else {
				cur = cur + "." + f.DBName
			}
			curElem = childElem
		case f.Kind == mapping.FieldComplexChild && f.SetValued:
			a := tr.newAlias()
			tr.from = append(tr.from, fmt.Sprintf("TABLE(%s.%s) %s", cur, f.DBName, a))
			cur = a
			curElem = childElem
		case f.Kind == mapping.FieldComplexChild:
			cur = cur + "." + f.DBName
			curElem = childElem
		case f.Kind == mapping.FieldRefChild:
			return "", fmt.Errorf("xpath: step %s crosses a REF boundary; query the object table directly", step.Name)
		default:
			return "", fmt.Errorf("xpath: cannot traverse into %s (%v)", step.Name, f.Kind)
		}
		if err := tr.applyPreds(cur, curElem, step.Preds); err != nil {
			return "", err
		}
	}
	if len(path.Steps) == 1 && path.Attr == "" {
		return "", fmt.Errorf("xpath: the root element %s is a table row, not a value; select a child or attribute", root.Name)
	}
	selectExpr := cur
	if path.Attr != "" {
		e, err := tr.attrExpr(cur, curElem, path.Attr)
		if err != nil {
			return "", err
		}
		selectExpr = e
	}
	stmt := "SELECT " + selectExpr + " FROM " + strings.Join(tr.from, ", ")
	if len(tr.where) > 0 {
		stmt += " WHERE " + strings.Join(tr.where, " AND ")
	}
	return stmt, nil
}

// fieldFor finds the field mapping a child element.
func fieldFor(m *mapping.ElemMapping, child string) *mapping.Field {
	for i := range m.Fields {
		if m.Fields[i].XMLName == child &&
			m.Fields[i].Kind != mapping.FieldXMLAttr && m.Fields[i].Kind != mapping.FieldIDRef {
			return &m.Fields[i]
		}
	}
	return nil
}

// attrExpr renders access to an XML attribute of the current element.
func (tr *translator) attrExpr(cur string, m *mapping.ElemMapping, attr string) (string, error) {
	if m == nil {
		return "", fmt.Errorf("xpath: attribute access on text content")
	}
	for _, af := range m.AttrListFields {
		if af.XMLName == attr {
			wrapper := ""
			for _, f := range m.Fields {
				if f.Kind == mapping.FieldAttrList {
					wrapper = f.DBName
				}
			}
			if wrapper == "" {
				return "", fmt.Errorf("xpath: element %s has no attribute list", m.Name)
			}
			return cur + "." + wrapper + "." + af.DBName, nil
		}
	}
	for _, f := range m.Fields {
		if f.Kind == mapping.FieldXMLAttr && f.XMLName == attr {
			return cur + "." + f.DBName, nil
		}
	}
	return "", fmt.Errorf("xpath: element %s has no attribute %s", m.Name, attr)
}

// applyPreds appends WHERE conditions for the step's predicates.
func (tr *translator) applyPreds(cur string, m *mapping.ElemMapping, preds []Pred) error {
	for _, pred := range preds {
		switch {
		case pred.Pos > 0:
			return fmt.Errorf("xpath: positional predicates are not translatable to unordered SQL")
		case pred.Attr != "":
			e, err := tr.attrExpr(cur, m, pred.Attr)
			if err != nil {
				return err
			}
			tr.where = append(tr.where, fmt.Sprintf("%s = '%s'", e, escape(pred.Value)))
		case pred.Child != "":
			f := fieldFor(m, pred.Child)
			if f == nil {
				return fmt.Errorf("xpath: %s has no child %s", m.Name, pred.Child)
			}
			if f.Kind != mapping.FieldSimpleChild {
				return fmt.Errorf("xpath: predicate child %s is not simple", pred.Child)
			}
			if f.SetValued {
				a := tr.newAlias()
				tr.from = append(tr.from, fmt.Sprintf("TABLE(%s.%s) %s", cur, f.DBName, a))
				tr.where = append(tr.where, fmt.Sprintf("%s.COLUMN_VALUE = '%s'", a, escape(pred.Value)))
			} else {
				tr.where = append(tr.where, fmt.Sprintf("%s.%s = '%s'", cur, f.DBName, escape(pred.Value)))
			}
		}
	}
	return nil
}

func escape(s string) string { return strings.ReplaceAll(s, "'", "''") }
