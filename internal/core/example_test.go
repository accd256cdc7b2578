package core_test

import (
	"fmt"

	"udi/internal/core"
	"udi/internal/schema"
)

// Setting up a complete self-configuring integration system over three
// heterogeneous sources and answering a query posed over the exposed
// mediated schema.
func ExampleSetup() {
	sources := []*schema.Source{
		schema.MustNewSource("s1", []string{"title", "year"},
			[][]string{{"The Silent River", "1997"}}),
		schema.MustNewSource("s2", []string{"titles", "years"},
			[][]string{{"The Lost Empire", "2004"}}),
		schema.MustNewSource("s3", []string{"title", "year"},
			[][]string{{"The Golden Garden", "1988"}}),
	}
	corpus, err := schema.NewCorpus("movies", sources)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	sys, err := core.Setup(corpus, core.Config{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(sys.Target)
	rs, err := sys.Query("SELECT title FROM Movies WHERE year > 1990")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, a := range rs.Ranked {
		fmt.Printf("%.2f %s\n", a.Prob, a.Values[0])
	}
	// Output:
	// ({title, titles}, {year, years})
	// 1.00 The Lost Empire
	// 1.00 The Silent River
}

// The automatic half of the paper's motivating example (Example 2.1):
// five people sources, some with separate home and office phones and
// addresses, some with one generic phone/address column, integrated with
// no hand-made configuration. The ambiguous query returns the generic
// sources' tuples with certainty and every (phone, address)
// interpretation of the split sources' tuples with its probability.
// Figure 1's hand-specified p-med-schema is TestAnswerPMedFigure1 in
// internal/answer.
func ExampleSetup_motivatingExample() {
	// S1 is the paper's S1(name, hPhone, hAddr, oPhone, oAddr) with
	// Alice's tuple; the attribute spellings are typical web-table headers
	// whose pairwise similarity drives the automatic setup.
	s1 := schema.MustNewSource("S1",
		[]string{"name", "hm-phone", "addr-hm", "o-phone", "o-adres"},
		[][]string{
			{"Alice", "555-4567", "123, A Ave.", "777-4321", "456, B Ave."},
			{"Bob", "555-8800", "9, Oak Dr.", "777-1100", "77, Main St."},
		})
	// S2 is the paper's S2(name, phone, address): the generic names are
	// ambiguous between the home and office concepts.
	s2 := schema.MustNewSource("S2",
		[]string{"name", "phone", "address"},
		[][]string{{"Carol", "555-1234", "5, Pine Rd."}})
	// More sources so attribute frequencies and co-occurrence statistics
	// are meaningful.
	s3 := schema.MustNewSource("S3",
		[]string{"name", "hm-phone", "o-phone"},
		[][]string{{"Dan", "555-2222", "777-3333"}})
	s4 := schema.MustNewSource("S4",
		[]string{"name", "phone", "address"},
		[][]string{{"Erin", "777-9999", "8, Lake Blvd."}})
	s5 := schema.MustNewSource("S5",
		[]string{"name", "addr-hm", "o-adres"},
		[][]string{{"Frank", "3, Hill Ct.", "21, Park Ln."}})
	corpus, err := schema.NewCorpus("people", []*schema.Source{s1, s2, s3, s4, s5})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	sys, err := core.Setup(corpus, core.Config{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%d possible mediated schemas; consolidated:\n%s\n", sys.Med.PMed.Len(), sys.Target)
	rs, err := sys.Query("SELECT name, phone, address FROM People")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, a := range rs.Ranked {
		fmt.Printf("%.4f %v\n", a.Prob, a.Values)
	}
	// Output:
	// 16 possible mediated schemas; consolidated:
	// ({addr-hm}, {address}, {hm-phone}, {name}, {o-adres}, {o-phone}, {phone})
	// 1.0000 [Carol 555-1234 5, Pine Rd.]
	// 1.0000 [Erin 777-9999 8, Lake Blvd.]
	// 0.0923 [Alice 555-4567 123, A Ave.]
	// 0.0923 [Alice 555-4567 456, B Ave.]
	// 0.0923 [Alice 777-4321 123, A Ave.]
	// 0.0923 [Alice 777-4321 456, B Ave.]
	// 0.0923 [Bob 555-8800 77, Main St.]
	// 0.0923 [Bob 555-8800 9, Oak Dr.]
	// 0.0923 [Bob 777-1100 77, Main St.]
	// 0.0923 [Bob 777-1100 9, Oak Dr.]
}
