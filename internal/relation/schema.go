package relation

import (
	"fmt"
	"strings"
)

// Attribute describes one column of a relation schema.
type Attribute struct {
	Name string
	Type Kind
}

// Schema describes the structure of a relation: its name, ordered
// attributes, and (optionally) a primary key. Attribute names must be
// unique within a schema. Following the paper we use globally suggestive
// attribute names (r1, s1, ...) but nothing requires global uniqueness
// except when relations are joined, where the combined schema must not
// contain duplicate names.
type Schema struct {
	name  string
	attrs []Attribute
	index map[string]int
	key   []int // attribute positions forming the primary key; empty if none
}

// NewSchema constructs a schema. keyAttrs lists the names of the primary
// key attributes (may be empty). It returns an error on duplicate or
// unknown attribute names.
func NewSchema(name string, attrs []Attribute, keyAttrs ...string) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("relation: schema needs a name")
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("relation: schema %s needs at least one attribute", name)
	}
	s := &Schema{
		name:  name,
		attrs: append([]Attribute(nil), attrs...),
		index: make(map[string]int, len(attrs)),
	}
	for i, a := range s.attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("relation: schema %s has an unnamed attribute at position %d", name, i)
		}
		if _, dup := s.index[a.Name]; dup {
			return nil, fmt.Errorf("relation: schema %s has duplicate attribute %q", name, a.Name)
		}
		s.index[a.Name] = i
	}
	for _, k := range keyAttrs {
		i, ok := s.index[k]
		if !ok {
			return nil, fmt.Errorf("relation: schema %s key attribute %q not found", name, k)
		}
		s.key = append(s.key, i)
	}
	return s, nil
}

// MustSchema is like NewSchema but panics on error. Intended for tests and
// examples with literal schemas.
func MustSchema(name string, attrs []Attribute, keyAttrs ...string) *Schema {
	s, err := NewSchema(name, attrs, keyAttrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns the schema (relation) name.
func (s *Schema) Name() string { return s.name }

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.attrs) }

// Attrs returns the ordered attribute list (a copy).
func (s *Schema) Attrs() []Attribute { return append([]Attribute(nil), s.attrs...) }

// AttrNames returns the ordered attribute names.
func (s *Schema) AttrNames() []string {
	out := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		out[i] = a.Name
	}
	return out
}

// AttrIndex returns the position of the named attribute.
func (s *Schema) AttrIndex(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// HasAttr reports whether the schema contains the named attribute.
func (s *Schema) HasAttr(name string) bool {
	_, ok := s.index[name]
	return ok
}

// AttrType returns the kind of the named attribute.
func (s *Schema) AttrType(name string) (Kind, bool) {
	i, ok := s.index[name]
	if !ok {
		return KindNull, false
	}
	return s.attrs[i].Type, true
}

// KeyAttrs returns the names of the primary-key attributes, or nil if the
// schema has no declared key.
func (s *Schema) KeyAttrs() []string {
	if len(s.key) == 0 {
		return nil
	}
	out := make([]string, len(s.key))
	for i, p := range s.key {
		out[i] = s.attrs[p].Name
	}
	return out
}

// HasKey reports whether the schema declares a primary key.
func (s *Schema) HasKey() bool { return len(s.key) > 0 }

// Rename returns a copy of the schema with a different relation name.
func (s *Schema) Rename(name string) *Schema {
	c := *s
	c.name = name
	return &c
}

// Project returns a new schema with only the named attributes, in the given
// order, named newName. The key is retained only if every key attribute
// survives the projection.
func (s *Schema) Project(newName string, names []string) (*Schema, error) {
	attrs := make([]Attribute, 0, len(names))
	kept := make(map[string]bool, len(names))
	for _, n := range names {
		i, ok := s.index[n]
		if !ok {
			return nil, fmt.Errorf("relation: project: schema %s has no attribute %q", s.name, n)
		}
		attrs = append(attrs, s.attrs[i])
		kept[n] = true
	}
	var key []string
	if s.HasKey() {
		all := true
		for _, k := range s.KeyAttrs() {
			if !kept[k] {
				all = false
				break
			}
		}
		if all {
			key = s.KeyAttrs()
		}
	}
	return NewSchema(newName, attrs, key...)
}

// Concat returns the schema of the natural concatenation (cross product /
// theta join) of s and o, named newName. Attribute names must be disjoint.
// Keys are not propagated.
func (s *Schema) Concat(newName string, o *Schema) (*Schema, error) {
	attrs := make([]Attribute, 0, len(s.attrs)+len(o.attrs))
	attrs = append(attrs, s.attrs...)
	attrs = append(attrs, o.attrs...)
	return NewSchema(newName, attrs)
}

// Positions maps the given attribute names to their positions.
func (s *Schema) Positions(names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		p, ok := s.index[n]
		if !ok {
			return nil, fmt.Errorf("relation: schema %s has no attribute %q", s.name, n)
		}
		out[i] = p
	}
	return out, nil
}

// String renders the schema as Name(a1 type, a2 type, ...) with key
// attributes marked by a leading asterisk.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.name)
	b.WriteByte('(')
	keyed := make(map[int]bool, len(s.key))
	for _, p := range s.key {
		keyed[p] = true
	}
	for i, a := range s.attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		if keyed[i] {
			b.WriteByte('*')
		}
		b.WriteString(a.Name)
		b.WriteByte(' ')
		b.WriteString(a.Type.String())
	}
	b.WriteByte(')')
	return b.String()
}

// SameShape reports whether two schemas are union-compatible: same arity
// and same attribute types position by position (names may differ).
func (s *Schema) SameShape(o *Schema) bool {
	if len(s.attrs) != len(o.attrs) {
		return false
	}
	for i := range s.attrs {
		if s.attrs[i].Type != o.attrs[i].Type {
			return false
		}
	}
	return true
}

// FD is a functional dependency From -> To over attribute names. The paper
// uses FDs derived from source keys to justify key-based construction of
// temporary relations (Example 2.3).
type FD struct {
	From []string
	To   []string
}

// String renders the FD as "a,b -> c".
func (fd FD) String() string {
	return strings.Join(fd.From, ",") + " -> " + strings.Join(fd.To, ",")
}
