package ordb

import (
	"fmt"
)

// View is a stored query definition. The engine keeps the definition
// opaque (the sql package compiles and executes it); object views over
// relational tables are the Section 6.3 mechanism for superimposing the
// document structure on a shredded schema.
type View struct {
	Name string
	// Definition is the SQL text of the defining query, kept for
	// catalog listings.
	Definition string
	// Compiled is the executable form supplied by the sql package.
	Compiled any
}

// CreateView registers a view. With orReplace, an existing view of the
// same name is replaced.
func (db *DB) CreateView(name, definition string, compiled any, orReplace bool) (*View, error) {
	if err := db.writable(); err != nil {
		return nil, err
	}
	if err := checkIdent(name); err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	k := key(name)
	if _, ok := db.tables[k]; ok {
		return nil, fmt.Errorf("ordb: view %q collides with table: %w", name, ErrExists)
	}
	if _, ok := db.views[k]; ok && !orReplace {
		return nil, fmt.Errorf("ordb: view %q: %w", name, ErrExists)
	}
	v := &View{Name: name, Definition: definition, Compiled: compiled}
	if _, ok := db.views[k]; !ok {
		db.viewOrder = append(db.viewOrder, k)
	}
	db.views[k] = v
	db.verDirty = true
	db.maybePublishLocked()
	return v, nil
}

// View looks up a view by name.
func (db *DB) View(name string) (*View, error) {
	db.rlock()
	defer db.runlock()
	v, ok := lookup(db.views, name)
	if !ok {
		return nil, fmt.Errorf("ordb: view %q: %w", name, ErrNotFound)
	}
	return v, nil
}

// ViewNames lists view names in creation order.
func (db *DB) ViewNames() []string {
	db.rlock()
	defer db.runlock()
	out := make([]string, 0, len(db.viewOrder))
	for _, k := range db.viewOrder {
		out = append(out, db.views[k].Name)
	}
	return out
}

// DropView removes a view.
func (db *DB) DropView(name string) error {
	if err := db.writable(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	k := key(name)
	if _, ok := db.views[k]; !ok {
		return fmt.Errorf("ordb: view %q: %w", name, ErrNotFound)
	}
	delete(db.views, k)
	db.viewOrder = removeString(db.viewOrder, k)
	db.verDirty = true
	db.maybePublishLocked()
	return nil
}
