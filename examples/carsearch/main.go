// Carsearch integrates a large corpus of used-car listing tables and
// compares the self-configuring system with the Source baseline (§7.3):
// posing the query only on sources whose schemas literally contain the
// query attributes. The probabilistic mappings reach sources that spell
// the attributes differently ("maker", "prix", "milage"), which Source
// misses.
package main

import (
	"fmt"
	"log"

	"udi/internal/core"
	"udi/internal/datagen"
	"udi/internal/eval"
	"udi/internal/experiments"
	"udi/internal/sqlparse"
)

func main() {
	spec := datagen.Car(102)
	spec.NumSources = 250 // a subset keeps the example snappy
	corpus, err := datagen.Generate(spec)
	if err != nil {
		log.Fatal(err)
	}

	sys, err := core.Setup(corpus.Corpus, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Integrated %d car sources in %v.\n", len(corpus.Corpus.Sources), sys.Timings.Total().Round(1e6))
	fmt.Printf("Consolidated mediated schema:\n   %s\n\n", sys.Target)

	const query = "SELECT make, model, price FROM Car WHERE price < 15000"
	q := sqlparse.MustParse(query)
	golden, err := corpus.GoldenAnswers(q)
	if err != nil {
		log.Fatal(err)
	}

	udiRS, err := sys.QueryParsed(q)
	if err != nil {
		log.Fatal(err)
	}
	srcRS, err := experiments.Run(sys, experiments.SourceOnly, q)
	if err != nil {
		log.Fatal(err)
	}

	udiScore := eval.InstancePRF(udiRS.Instances, golden, true)
	srcScore := eval.InstancePRF(srcRS.Instances, golden, true)

	fmt.Println(query)
	fmt.Printf("%-8s answers=%5d  precision=%.3f recall=%.3f F=%.3f\n",
		"UDI", len(udiRS.Instances), udiScore.Precision, udiScore.Recall, udiScore.F)
	fmt.Printf("%-8s answers=%5d  precision=%.3f recall=%.3f F=%.3f\n",
		"Source", len(srcRS.Instances), srcScore.Precision, srcScore.Recall, srcScore.F)

	fmt.Println("\nTop 5 ranked answers (UDI):")
	for i, a := range udiRS.Ranked {
		if i >= 5 {
			break
		}
		fmt.Printf("%2d. p=%.3f  %v\n", i+1, a.Prob, a.Values)
	}

	// Show one source Source misses: a listing table that says "maker".
	for _, s := range corpus.Corpus.Sources {
		if s.HasAttr("maker") && !s.HasAttr("make") {
			fmt.Printf("\nSource %q uses %v — unreachable for the Source baseline,\n", s.Name, s.Attrs)
			fmt.Println("but mapped probabilistically by the mediated schema.")
			break
		}
	}
}
