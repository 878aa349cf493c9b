// Package retrieval reconstructs XML documents from the generated
// object-relational schema — the inverse of the loader — and quantifies
// round-trip fidelity. With the meta-database (Section 5/6.1) the prolog
// is restored and expanded entities are re-substituted by their original
// references; without it, that information is lost, which experiment E4
// measures.
package retrieval

import (
	"fmt"
	"strings"

	"xmlordb/internal/dtd"
	"xmlordb/internal/mapping"
	"xmlordb/internal/meta"
	"xmlordb/internal/ordb"
	"xmlordb/internal/sql"
	"xmlordb/internal/xmldom"
)

// Retriever reconstructs documents from one generated schema.
type Retriever struct {
	sch *mapping.Schema
	en  *sql.Engine
	// Meta, when non-nil, restores prolog and entity references.
	Meta *meta.Store
}

// New returns a retriever over the engine.
func New(sch *mapping.Schema, en *sql.Engine) *Retriever {
	return &Retriever{sch: sch, en: en}
}

// Document reconstructs the document with the given DocID.
func (r *Retriever) Document(docID int) (*xmldom.Document, error) {
	rootTab, err := r.en.DB().Table(r.sch.RootTable)
	if err != nil {
		return nil, err
	}
	row := meta.DocRow(rootTab, docID)
	if row == nil {
		return nil, fmt.Errorf("retrieval: document %d not found in %s", docID, r.sch.RootTable)
	}
	rowVals := row.Vals
	doc := xmldom.NewDocument()
	rm := r.sch.Elems[r.sch.RootElem]
	b := &xmldom.Builder{}
	var rootElem *xmldom.Element
	if rm.StoredByRef {
		ref, ok := rowVals[1].(ordb.Ref)
		if !ok {
			return nil, fmt.Errorf("retrieval: root row of document %d holds no REF", docID)
		}
		rootElem, err = r.elementFromRef(b, ref, map[ordb.Ref]bool{})
		if err != nil {
			return nil, err
		}
	} else {
		rootElem, err = r.elementFromVals(b, r.sch.RootElem, rm, rowVals[1:], nil, map[ordb.Ref]bool{})
		if err != nil {
			return nil, err
		}
	}
	doc.AppendChild(rootElem)
	if r.Meta != nil {
		md, err := r.Meta.Document(docID)
		if err != nil {
			return nil, err
		}
		doc.Version = md.XMLVersion
		doc.Encoding = md.CharacterSet
		doc.Standalone = md.Standalone
		doc.DoctypeName = r.sch.RootElem
		doc.InternalSubset = "\n" + r.sch.DTD.String()
		restoreEntities(rootElem, md.Entities)
	}
	return doc, nil
}

// elementFromRef dereferences and reconstructs a row-stored element.
// visited guards against cycles among REF rows (possible with IDREFs).
func (r *Retriever) elementFromRef(b *xmldom.Builder, ref ordb.Ref, visited map[ordb.Ref]bool) (*xmldom.Element, error) {
	if visited[ref] {
		return nil, fmt.Errorf("retrieval: cyclic REF into %s", ref.Table)
	}
	visited[ref] = true
	defer delete(visited, ref)
	obj, err := r.en.DB().Deref(ref)
	if err != nil {
		return nil, err
	}
	name, m, err := r.mappingForTable(ref.Table)
	if err != nil {
		return nil, err
	}
	el, err := r.elementFromVals(b, name, m, obj.Attrs, &ref, visited)
	if err != nil {
		return nil, err
	}
	return el, nil
}

// mappingForTable finds the element mapping stored in an object table.
func (r *Retriever) mappingForTable(table string) (string, *mapping.ElemMapping, error) {
	for name, m := range r.sch.Elems {
		if strings.EqualFold(m.ObjectTable, table) {
			return name, m, nil
		}
	}
	return "", nil, fmt.Errorf("retrieval: no element mapped to table %q", table)
}

// elementFromVals rebuilds one element from its field values. selfRef is
// the row identity when the element is row-stored (needed to find
// child-table rows pointing back at it).
func (r *Retriever) elementFromVals(b *xmldom.Builder, name string, m *mapping.ElemMapping, vals []ordb.Value, selfRef *ordb.Ref, visited map[ordb.Ref]bool) (*xmldom.Element, error) {
	el := b.Element(name)
	if len(vals) != len(m.Fields) {
		return nil, fmt.Errorf("retrieval: element %s: %d values for %d fields", name, len(vals), len(m.Fields))
	}
	b.Reserve(el, len(m.Fields))
	for i, f := range m.Fields {
		if err := r.applyField(b, el, m, f, vals[i], visited); err != nil {
			return nil, fmt.Errorf("element %s field %s: %w", name, f.DBName, err)
		}
	}
	// Children stored in child tables (Section 4.2 variant) are found by
	// probing the index on their parent REF for this row; the probe answers
	// in insertion order, which reproduces document order.
	if selfRef != nil {
		if err := r.attachChildTableRows(b, el, m, *selfRef, visited); err != nil {
			return nil, err
		}
	}
	return el, nil
}

func (r *Retriever) applyField(b *xmldom.Builder, el *xmldom.Element, m *mapping.ElemMapping, f mapping.Field, v ordb.Value, visited map[ordb.Ref]bool) error {
	switch f.Kind {
	case mapping.FieldDocID, mapping.FieldGenID, mapping.FieldParentRef:
		return nil // generated fields have no XML counterpart
	case mapping.FieldAttrList:
		if ordb.IsNull(v) {
			return nil
		}
		obj, ok := v.(*ordb.Object)
		if !ok {
			return fmt.Errorf("attrList value is %T", v)
		}
		for i, af := range m.AttrListFields {
			if i >= len(obj.Attrs) {
				break
			}
			if err := r.applyXMLAttr(el, af, obj.Attrs[i]); err != nil {
				return err
			}
		}
		return nil
	case mapping.FieldXMLAttr, mapping.FieldIDRef:
		return r.applyXMLAttr(el, f, v)
	case mapping.FieldPCDATA, mapping.FieldMixedText:
		if f.XMLName == el.Name {
			if !ordb.IsNull(v) {
				el.AppendChild(b.Text(valueText(v)))
			}
			return nil
		}
		return r.applySimpleChild(b, el, f, v)
	case mapping.FieldSimpleChild:
		return r.applySimpleChild(b, el, f, v)
	case mapping.FieldComplexChild:
		return r.applyComplexChild(b, el, f, v, visited)
	case mapping.FieldRefChild:
		return r.applyRefChild(b, el, f, v, visited)
	default:
		return fmt.Errorf("retrieval: unhandled field kind %d", f.Kind)
	}
}

// applyXMLAttr restores one XML attribute; IDREF REFs are resolved back
// to the target's ID attribute value.
func (r *Retriever) applyXMLAttr(el *xmldom.Element, f mapping.Field, v ordb.Value) error {
	if ordb.IsNull(v) {
		return nil
	}
	if f.Kind == mapping.FieldIDRef {
		ref, ok := v.(ordb.Ref)
		if !ok {
			return fmt.Errorf("IDREF column holds %T", v)
		}
		idVal, err := r.idValueOf(ref)
		if err != nil {
			return err
		}
		el.SetAttr(f.XMLName, idVal)
		return nil
	}
	el.SetAttr(f.XMLName, valueText(v))
	return nil
}

// idValueOf reads the ID attribute value of the row a REF points at.
func (r *Retriever) idValueOf(ref ordb.Ref) (string, error) {
	obj, err := r.en.DB().Deref(ref)
	if err != nil {
		return "", err
	}
	name, m, err := r.mappingForTable(ref.Table)
	if err != nil {
		return "", err
	}
	if m.HasIDAttr == "" {
		return "", fmt.Errorf("retrieval: element %s has no ID attribute", name)
	}
	// The ID lives in the attrList object (or inline).
	for i, f := range m.Fields {
		if f.Kind == mapping.FieldAttrList {
			al, ok := obj.Attrs[i].(*ordb.Object)
			if !ok {
				continue
			}
			for j, af := range m.AttrListFields {
				if af.XMLName == m.HasIDAttr {
					return valueText(al.Attrs[j]), nil
				}
			}
		}
		if f.Kind == mapping.FieldXMLAttr && f.XMLName == m.HasIDAttr {
			return valueText(obj.Attrs[i]), nil
		}
	}
	return "", fmt.Errorf("retrieval: ID value of %s not found", name)
}

func (r *Retriever) applySimpleChild(b *xmldom.Builder, el *xmldom.Element, f mapping.Field, v ordb.Value) error {
	if ordb.IsNull(v) {
		return nil
	}
	empty := isEmptyElem(r.sch, f.XMLName)
	mk := func(val ordb.Value) {
		var child *xmldom.Element
		if empty {
			child = b.Element(f.XMLName)
		} else {
			child = b.TextElement(f.XMLName, valueText(val))
		}
		el.AppendChild(child)
	}
	if f.SetValued {
		coll, ok := v.(*ordb.Coll)
		if !ok {
			return fmt.Errorf("set-valued simple child holds %T", v)
		}
		b.Reserve(el, len(coll.Elems))
		for _, e := range coll.Elems {
			mk(e)
		}
		return nil
	}
	mk(v)
	return nil
}

func isEmptyElem(sch *mapping.Schema, name string) bool {
	d := sch.DTD.Element(name)
	return d != nil && d.Content == dtd.EmptyContent
}

func (r *Retriever) applyComplexChild(b *xmldom.Builder, el *xmldom.Element, f mapping.Field, v ordb.Value, visited map[ordb.Ref]bool) error {
	if ordb.IsNull(v) {
		return nil
	}
	cm := r.sch.Elems[f.XMLName]
	build := func(val ordb.Value) error {
		obj, ok := val.(*ordb.Object)
		if !ok {
			return fmt.Errorf("complex child holds %T", val)
		}
		child, err := r.elementFromVals(b, f.XMLName, cm, obj.Attrs, nil, visited)
		if err != nil {
			return err
		}
		el.AppendChild(child)
		return nil
	}
	if f.SetValued {
		coll, ok := v.(*ordb.Coll)
		if !ok {
			return fmt.Errorf("set-valued complex child holds %T", v)
		}
		b.Reserve(el, len(coll.Elems))
		for _, e := range coll.Elems {
			if err := build(e); err != nil {
				return err
			}
		}
		return nil
	}
	return build(v)
}

func (r *Retriever) applyRefChild(b *xmldom.Builder, el *xmldom.Element, f mapping.Field, v ordb.Value, visited map[ordb.Ref]bool) error {
	if ordb.IsNull(v) {
		return nil
	}
	build := func(val ordb.Value) error {
		ref, ok := val.(ordb.Ref)
		if !ok {
			return fmt.Errorf("REF child holds %T", val)
		}
		child, err := r.elementFromRef(b, ref, visited)
		if err != nil {
			return err
		}
		el.AppendChild(child)
		return nil
	}
	if f.SetValued {
		coll, ok := v.(*ordb.Coll)
		if !ok {
			return fmt.Errorf("set-valued REF child holds %T", v)
		}
		b.Reserve(el, len(coll.Elems))
		for _, e := range coll.Elems {
			if err := build(e); err != nil {
				return err
			}
		}
		return nil
	}
	return build(v)
}

// attachChildTableRows finds StrategyRef children pointing back at this
// row and reconstructs them in insertion order. The children are found
// through the equality index every REF column carries, so the cost is
// the element's own children, whatever else the child table holds.
func (r *Retriever) attachChildTableRows(b *xmldom.Builder, el *xmldom.Element, m *mapping.ElemMapping, selfRef ordb.Ref, visited map[ordb.Ref]bool) error {
	decl := r.sch.DTD.Element(m.Name)
	if decl == nil {
		return nil
	}
	for _, refd := range decl.ChildRefs() {
		cm := r.sch.Elems[refd.Name]
		if cm == nil || cm.ObjectTable == "" {
			continue
		}
		// The child must carry a parent REF to this element type and the
		// parent must have no field for the child.
		parentCol := ""
		for _, f := range cm.Fields {
			if f.Kind == mapping.FieldParentRef && f.RefTarget == m.Name {
				parentCol = f.DBName
			}
		}
		if parentCol == "" || hasFieldFor(m, refd.Name) {
			continue
		}
		tab, err := r.en.DB().Table(cm.ObjectTable)
		if err != nil {
			return err
		}
		rows, ok := tab.ProbeEqual(parentCol, selfRef)
		if !ok {
			return fmt.Errorf("retrieval: %s.%s has no index to find the children of %s by", tab.Name, parentCol, m.Name)
		}
		for _, row := range rows {
			child, err := r.elementFromRef(b, ordb.Ref{Table: cm.ObjectTable, OID: row.OID}, visited)
			if err != nil {
				return err
			}
			el.AppendChild(child)
		}
	}
	return nil
}

func hasFieldFor(m *mapping.ElemMapping, childName string) bool {
	for _, f := range m.Fields {
		if f.XMLName == childName {
			return true
		}
	}
	return false
}

func valueText(v ordb.Value) string {
	if s, ok := v.(ordb.Str); ok {
		return string(s)
	}
	return ordb.FormatValue(v)
}

// restoreEntities re-substitutes entity references for their expansion
// text in all text nodes — the Section 6.1 proposal. Longer substitution
// texts are applied first so overlapping entities resolve greedily.
func restoreEntities(el *xmldom.Element, entities []meta.Entity) {
	subs := make([]meta.Entity, 0, len(entities))
	for _, e := range entities {
		if e.Substitution != "" {
			subs = append(subs, e)
		}
	}
	if len(subs) == 0 {
		return
	}
	// Sort by substitution length, longest first (insertion sort — the
	// list is tiny).
	for i := 1; i < len(subs); i++ {
		for j := i; j > 0 && len(subs[j].Substitution) > len(subs[j-1].Substitution); j-- {
			subs[j], subs[j-1] = subs[j-1], subs[j]
		}
	}
	var walk func(n xmldom.Node)
	walk = func(n xmldom.Node) {
		e, ok := n.(*xmldom.Element)
		if !ok {
			return
		}
		old := e.Children()
		rebuilt := make([]xmldom.Node, 0, len(old))
		changed := false
		for _, c := range old {
			if t, isText := c.(*xmldom.Text); isText {
				parts := splitEntities(t.Data, subs)
				if len(parts) != 1 {
					changed = true
				} else if _, stillText := parts[0].(*xmldom.Text); !stillText {
					changed = true // the whole run became one entity reference
				}
				rebuilt = append(rebuilt, parts...)
				continue
			}
			walk(c)
			rebuilt = append(rebuilt, c)
		}
		if changed {
			e.SetChildren(rebuilt)
		}
	}
	walk(el)
}

// splitEntities splits a text run into text and entity-reference nodes.
func splitEntities(text string, subs []meta.Entity) []xmldom.Node {
	for _, ent := range subs {
		if idx := strings.Index(text, ent.Substitution); idx >= 0 {
			var out []xmldom.Node
			if idx > 0 {
				out = append(out, splitEntities(text[:idx], subs)...)
			}
			out = append(out, xmldom.NewEntityRef(ent.Name, ent.Substitution))
			rest := text[idx+len(ent.Substitution):]
			if rest != "" {
				out = append(out, splitEntities(rest, subs)...)
			}
			return out
		}
	}
	return []xmldom.Node{xmldom.NewText(text)}
}
