package keyword

import (
	"testing"

	"udi/internal/schema"
	"udi/internal/sqlparse"
)

func fixture() *Engine {
	c, _ := schema.NewCorpus("movies", []*schema.Source{
		schema.MustNewSource("s1", []string{"title", "year"}, [][]string{
			{"Star Wars", "1977"},
			{"Alien", "1979"},
		}),
		schema.MustNewSource("s2", []string{"name", "released"}, [][]string{
			{"Star Trek", "1979"},
			{"Year One", "2009"}, // contains the token "year" as a value
		}),
	})
	return NewEngine(BuildIndex(c, 1))
}

func TestKeywords(t *testing.T) {
	q := sqlparse.MustParse("SELECT title, year FROM t WHERE director = 'Lucas'")
	kws := Keywords(q)
	want := []string{"title", "year", "Lucas"}
	if len(kws) != len(want) {
		t.Fatalf("Keywords = %v", kws)
	}
	for i := range want {
		if kws[i] != want[i] {
			t.Errorf("Keywords = %v, want %v", kws, want)
		}
	}
}

func TestNaiveMatchesAttributeNameTokens(t *testing.T) {
	e := fixture()
	// Naive treats "year" as a plain keyword: it matches the value "Year
	// One" in s2 even though the user meant the column.
	q := sqlparse.MustParse("SELECT year FROM t WHERE title = 'Star Wars'")
	got := e.Answer(q, Naive)
	// Matches: s1 row 0 (star wars), s2 row 0 (star), s2 row 1 (year one),
	// and nothing else ("wars" hits s1 row 0 already counted).
	if len(got) != 3 {
		t.Fatalf("Naive = %v", got)
	}
}

func TestStructFiltersStructureTerms(t *testing.T) {
	e := fixture()
	q := sqlparse.MustParse("SELECT year FROM t WHERE title = 'Star Wars'")
	got := e.Answer(q, Struct)
	// For s1, "year" and "title" are structure terms; value term is "Star
	// Wars" (OR over its tokens as one term). s1 row 0 matches. For s2,
	// "year" is NOT an attribute token, so it is a value term: s2 row 1
	// ("Year One") matches, and "Star Wars" partially (needs all tokens of
	// the term: "star" yes, "wars" no -> no).
	found := map[string]bool{}
	for _, inst := range got {
		found[inst.Source+":"+itoa(inst.Row)] = true
	}
	if !found["s1:0"] {
		t.Errorf("Struct missed s1 row 0: %v", got)
	}
	if !found["s2:1"] {
		t.Errorf("Struct missed s2 row 1 (year as value term): %v", got)
	}
	if found["s2:0"] {
		t.Errorf("Struct matched s2 row 0 without full term: %v", got)
	}
}

func TestStrictRequiresAllValueTerms(t *testing.T) {
	e := fixture()
	q := sqlparse.MustParse("SELECT title FROM t WHERE year = '1979'")
	// s1: "title" and "year" structural; value term "1979": rows with 1979
	// -> s1 row 1 (Alien). s2: "title" and "year" are value terms along
	// with "1979": Strict needs all of them in one row -> none.
	got := e.Answer(q, Strict)
	if len(got) != 1 || got[0].Source != "s1" || got[0].Row != 1 {
		t.Errorf("Strict = %v", got)
	}
}

func TestStructAllStructural(t *testing.T) {
	e := fixture()
	// Query with only attribute names: for s1 every keyword is structural,
	// so s1 yields nothing; s2 treats them as value terms.
	q := sqlparse.MustParse("SELECT title, year FROM t")
	got := e.Answer(q, Struct)
	for _, inst := range got {
		if inst.Source == "s1" {
			t.Errorf("s1 matched with all-structural keywords: %v", inst)
		}
	}
}

func TestVariantString(t *testing.T) {
	if Naive.String() != "KeywordNaive" || Struct.String() != "KeywordStruct" || Strict.String() != "KeywordStrict" {
		t.Error("Variant.String wrong")
	}
}

func itoa(i int) string {
	return string(rune('0' + i))
}
