package keyword

import (
	"fmt"
	"reflect"
	"testing"

	"udi/internal/schema"
)

func testCorpus() *schema.Corpus {
	c, _ := schema.NewCorpus("test", []*schema.Source{
		schema.MustNewSource("s1", []string{"name", "phone"}, [][]string{
			{"Alice Smith", "123-4567"},
			{"Bob Jones", "765-4321"},
		}),
		schema.MustNewSource("s2", []string{"title", "year"}, [][]string{
			{"Alice in Wonderland", "1951"},
		}),
	})
	return c
}

func TestKeywordIndexAny(t *testing.T) {
	ix := BuildIndex(testCorpus(), 1)
	refs := ix.RowsWithAny([]string{"alice"})
	if len(refs) != 2 {
		t.Fatalf("RowsWithAny(alice) = %v, want 2 rows", refs)
	}
	if refs[0].Source != "s1" || refs[1].Source != "s2" {
		t.Errorf("refs = %v", refs)
	}
	if row := ix.Row(refs[0]); row[0] != "Alice Smith" {
		t.Errorf("Row = %v", row)
	}
}

func TestKeywordIndexAll(t *testing.T) {
	ix := BuildIndex(testCorpus(), 1)
	refs := ix.RowsWithAll([]string{"alice", "smith"})
	if len(refs) != 1 || refs[0].Source != "s1" || refs[0].Row != 0 {
		t.Fatalf("RowsWithAll = %v", refs)
	}
	if refs := ix.RowsWithAll([]string{"alice", "1951"}); len(refs) != 1 || refs[0].Source != "s2" {
		t.Fatalf("RowsWithAll cross-column = %v", refs)
	}
	if refs := ix.RowsWithAll(nil); refs != nil {
		t.Errorf("empty AND query returned %v", refs)
	}
	if refs := ix.RowsWithAll([]string{"alice", "zzz"}); len(refs) != 0 {
		t.Errorf("impossible AND query returned %v", refs)
	}
}

func TestKeywordIndexAttrTokens(t *testing.T) {
	ix := BuildIndex(testCorpus(), 1)
	if !ix.IsAttrToken("name", "s1") {
		t.Error("name should be an attr token of s1")
	}
	if ix.IsAttrToken("name", "s2") {
		t.Error("name is not an attr token of s2")
	}
	if !ix.IsAttrTokenAnywhere("year") || ix.IsAttrTokenAnywhere("alice") {
		t.Error("IsAttrTokenAnywhere wrong")
	}
}

func TestKeywordIndexStaleRef(t *testing.T) {
	ix := BuildIndex(testCorpus(), 1)
	if row := ix.Row(RowRef{"nope", 0}); row != nil {
		t.Error("stale source ref returned a row")
	}
	if row := ix.Row(RowRef{"s1", 99}); row != nil {
		t.Error("stale row ref returned a row")
	}
	if ix.SourceOf(RowRef{"s1", 0}) == nil {
		t.Error("SourceOf failed")
	}
}

func TestRowsWithAnyDedup(t *testing.T) {
	// Same token twice in one row must yield the row once; duplicate query
	// terms must not duplicate rows either.
	c, _ := schema.NewCorpus("d", []*schema.Source{
		schema.MustNewSource("s", []string{"a", "b"}, [][]string{{"x x", "x"}}),
	})
	ix := BuildIndex(c, 1)
	if refs := ix.RowsWithAny([]string{"x", "x"}); len(refs) != 1 {
		t.Errorf("dedup failed: %v", refs)
	}
}

// TestBuildKeywordIndexParallelEquivalence requires the sharded parallel
// build to produce the same structures as the serial one — including
// postings order, which the merge preserves by walking shards in corpus
// order.
func TestBuildKeywordIndexParallelEquivalence(t *testing.T) {
	var sources []*schema.Source
	for i := 0; i < 9; i++ {
		sources = append(sources, schema.MustNewSource(
			fmt.Sprintf("s%d", i),
			[]string{"name", "note"},
			[][]string{
				{fmt.Sprintf("ann%d", i), "fast red car"},
				{"bob", fmt.Sprintf("blue bike %d", i)},
			}))
	}
	c, err := schema.NewCorpus("kw", sources)
	if err != nil {
		t.Fatal(err)
	}
	serial := BuildIndex(c, 1)
	for _, workers := range []int{2, 4, 16} {
		parallel := BuildIndex(c, workers)
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("workers=%d: parallel keyword index differs from serial", workers)
		}
	}
}
