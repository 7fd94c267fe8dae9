package catalog

import (
	"strings"
	"testing"

	"enrichdb/internal/types"
)

func tweetSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("TweetData", []Column{
		{Name: "tid", Kind: types.KindInt},
		{Name: "feature", Kind: types.KindVector},
		{Name: "location", Kind: types.KindString},
		{Name: "sentiment", Kind: types.KindInt, Derived: true, FeatureCol: "feature", Domain: 3},
		{Name: "topic", Kind: types.KindInt, Derived: true, FeatureCol: "feature", Domain: 40},
	})
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func TestSchemaLookup(t *testing.T) {
	s := tweetSchema(t)
	if got := s.ColIndex("location"); got != 2 {
		t.Errorf("ColIndex(location) = %d want 2", got)
	}
	if got := s.ColIndex("nope"); got != -1 {
		t.Errorf("ColIndex(nope) = %d want -1", got)
	}
	if c := s.Col("sentiment"); c == nil || !c.Derived || c.Domain != 3 {
		t.Errorf("Col(sentiment) = %+v", c)
	}
	if got := s.DerivedCols(); len(got) != 2 || got[0] != "sentiment" || got[1] != "topic" {
		t.Errorf("DerivedCols = %v", got)
	}
	tu := &types.Tuple{Vals: []types.Value{types.NewInt(1), types.NewVector([]float64{0.5, 2}),
		types.NewString("x"), types.Null, types.Null}}
	if f, err := s.Feature(tu, "topic"); err != nil || len(f) != 2 || f[1] != 2 {
		t.Errorf("Feature(topic) = %v, %v", f, err)
	}
	for _, attr := range []string{"location", "nope"} {
		if _, err := s.Feature(tu, attr); err == nil {
			t.Errorf("Feature(%s) must fail: not a derived attribute", attr)
		}
	}
}

func TestSchemaValidation(t *testing.T) {
	cases := []struct {
		name string
		cols []Column
		want string
	}{
		{"dup", []Column{{Name: "a", Kind: types.KindInt}, {Name: "a", Kind: types.KindInt}}, "duplicate"},
		{"empty", []Column{{Name: "", Kind: types.KindInt}}, "empty name"},
		{"nofeature", []Column{{Name: "d", Kind: types.KindInt, Derived: true, Domain: 2}}, "unknown feature"},
		{"nodomain", []Column{{Name: "f", Kind: types.KindVector}, {Name: "d", Kind: types.KindInt, Derived: true, FeatureCol: "f"}}, "positive domain"},
		{"derivedfeature", []Column{
			{Name: "f", Kind: types.KindVector},
			{Name: "d1", Kind: types.KindInt, Derived: true, FeatureCol: "f", Domain: 2},
			{Name: "d2", Kind: types.KindInt, Derived: true, FeatureCol: "d1", Domain: 2},
		}, "must be fixed"},
	}
	for _, c := range cases {
		_, err := NewSchema("R", c.cols)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestCatalogAddAndList(t *testing.T) {
	c := New()
	s := tweetSchema(t)
	if err := c.Add(s); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := c.Add(s); err == nil {
		t.Error("duplicate Add must fail")
	}
	if c.Schema("TweetData") != s {
		t.Error("Schema lookup failed")
	}
	if c.Schema("nope") != nil {
		t.Error("unknown relation must return nil")
	}
	s2 := MustSchema("Alpha", []Column{{Name: "x", Kind: types.KindInt}})
	if err := c.Add(s2); err != nil {
		t.Fatalf("Add: %v", err)
	}
	rels := c.Relations()
	if len(rels) != 2 || rels[0] != "Alpha" || rels[1] != "TweetData" {
		t.Errorf("Relations = %v, want sorted [Alpha TweetData]", rels)
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSchema must panic on invalid schema")
		}
	}()
	MustSchema("bad", []Column{{Name: "a"}, {Name: "a"}})
}
