// Package catalog holds relation schemas for the extended relational model of
// the paper: each relation mixes fixed attributes with derived attributes
// that are produced by enrichment functions at query time.
package catalog

import (
	"fmt"
	"sort"

	"enrichdb/internal/types"
)

// Column describes one attribute of a relation.
type Column struct {
	// Name of the attribute, unique within the relation.
	Name string
	// Kind is the value type stored in this column: every non-NULL cell
	// has it. A derived attribute's is INT, the determined class label.
	Kind types.Kind
	// Derived marks the attribute as requiring enrichment (the paper's 𝒜ᵢ
	// attributes). Derived attributes are NULL until enriched.
	Derived bool
	// FeatureCol names the fixed column whose value is fed to this derived
	// attribute's enrichment functions (e.g. a feature-vector column). Empty
	// for fixed attributes.
	FeatureCol string
	// Domain is the number of distinct class labels a derived attribute can
	// take (e.g. 3 for sentiment, 40 for topic). Zero for fixed attributes.
	Domain int
}

// Schema is the definition of one relation.
type Schema struct {
	Name   string
	Cols   []Column
	byName map[string]int
	marks  map[string]uint64 // derived column -> its types.Tuple.Enriched bit
}

// NewSchema builds a schema and validates it: column names must be unique,
// every kind INT, STRING or VECTOR, and derived columns must be INT and name
// an existing fixed FeatureCol and a positive Domain.
func NewSchema(name string, cols []Column) (*Schema, error) {
	s := &Schema{Name: name, Cols: cols, byName: make(map[string]int, len(cols)), marks: make(map[string]uint64)}
	for i, c := range cols {
		if c.Derived && len(s.marks) < 64 {
			s.marks[c.Name] = 1 << len(s.marks)
		}
		if c.Name == "" {
			return nil, fmt.Errorf("catalog: relation %s: column %d has empty name", name, i)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("catalog: relation %s: duplicate column %s", name, c.Name)
		}
		if c.Kind != types.KindInt && c.Kind != types.KindString && c.Kind != types.KindVector {
			err := types.CheckKind(c.Kind)
			if err == nil {
				err = fmt.Errorf("%s is not a column kind; a column is INT, STRING or VECTOR", c.Kind)
			}
			return nil, fmt.Errorf("catalog: relation %s: column %s: %w", name, c.Name, err)
		}
		s.byName[c.Name] = i
	}
	for _, c := range cols {
		if !c.Derived {
			continue
		}
		if c.Kind != types.KindInt {
			return nil, fmt.Errorf("catalog: relation %s: derived column %s is %s; a derived column is INT", name, c.Name, c.Kind)
		}
		if c.Domain <= 0 {
			return nil, fmt.Errorf("catalog: relation %s: derived column %s needs a positive domain", name, c.Name)
		}
		fi, ok := s.byName[c.FeatureCol]
		if !ok {
			return nil, fmt.Errorf("catalog: relation %s: derived column %s references unknown feature column %q", name, c.Name, c.FeatureCol)
		}
		if cols[fi].Derived {
			return nil, fmt.Errorf("catalog: relation %s: feature column %s of %s must be fixed", name, c.FeatureCol, c.Name)
		}
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for tests and generators with
// statically known-good schemas.
func MustSchema(name string, cols []Column) *Schema {
	s, err := NewSchema(name, cols)
	if err != nil {
		panic(err)
	}
	return s
}

// ColIndex returns the position of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// Col returns the named column definition, or nil.
func (s *Schema) Col(name string) *Column {
	i := s.ColIndex(name)
	if i < 0 {
		return nil
	}
	return &s.Cols[i]
}

// CheckKinds refuses vals, the values of the columns from on, unless each
// non-NULL one has its column's kind. Storage runs it where values enter
// (a row from 0, an update's one cell), so every stored cell has its
// column's kind.
func (s *Schema) CheckKinds(from int, vals ...types.Value) error {
	for i := range vals {
		if k := vals[i].Kind(); k != types.KindNull && k != s.Cols[from+i].Kind {
			return s.kindError(from+i, k)
		}
	}
	return nil
}

func (s *Schema) kindError(ci int, k types.Kind) error {
	return fmt.Errorf("catalog: relation %s: column %s holds %s, not %s", s.Name, s.Cols[ci].Name, s.Cols[ci].Kind, k)
}

// MarkBit returns the column's bit in types.Tuple.Enriched, 1<<k for the k-th
// derived column; 0 (never marked) for fixed columns and past the 64th.
func (s *Schema) MarkBit(name string) uint64 { return s.marks[name] }

// Feature returns the feature vector the enrichment functions of derived
// attribute attr read from tuple image tu: the value of its FeatureCol.
// Every design reads features through it.
func (s *Schema) Feature(tu *types.Tuple, attr string) ([]float64, error) {
	col := s.Col(attr)
	if col == nil || !col.Derived {
		return nil, fmt.Errorf("catalog: %s.%s is not a derived attribute", s.Name, attr)
	}
	return tu.Vals[s.byName[col.FeatureCol]].Vector(), nil
}

// DerivedCols returns the names of all derived attributes, in schema order.
func (s *Schema) DerivedCols() []string {
	var out []string
	for _, c := range s.Cols {
		if c.Derived {
			out = append(out, c.Name)
		}
	}
	return out
}

// Catalog is the collection of relation schemas known to a database.
type Catalog struct {
	schemas map[string]*Schema
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{schemas: make(map[string]*Schema)}
}

// Add registers a schema; it is an error to register a name twice.
func (c *Catalog) Add(s *Schema) error {
	if _, dup := c.schemas[s.Name]; dup {
		return fmt.Errorf("catalog: relation %s already exists", s.Name)
	}
	c.schemas[s.Name] = s
	return nil
}

// Schema returns the schema for the named relation, or nil.
func (c *Catalog) Schema(name string) *Schema {
	return c.schemas[name]
}

// Relations returns all relation names in deterministic (sorted) order.
func (c *Catalog) Relations() []string {
	out := make([]string, 0, len(c.schemas))
	for n := range c.schemas {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
