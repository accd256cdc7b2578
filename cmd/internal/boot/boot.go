// Package boot turns the command-line description of what to integrate
// into a corpus or a configured system: a synthetic evaluation domain or
// a directory of CSV tables, cut to its first -sources sources, or a
// saved snapshot. It is the one loader behind cmd/udi and cmd/udiserver.
// Progress lines go to stderr.
package boot

import (
	"errors"
	"fmt"
	"os"

	"udi/internal/core"
	"udi/internal/csvio"
	"udi/internal/datagen"
	"udi/internal/persist"
	"udi/internal/schema"
)

// Corpus loads the CSV tables in data, or generates the synthetic domain
// when data is empty. sources > 0 keeps only the first sources sources.
func Corpus(domain, data string, sources int) (*schema.Corpus, error) {
	var corpus *schema.Corpus
	if data != "" {
		fmt.Fprintf(os.Stderr, "loading CSV tables from %s...\n", data)
		c, err := csvio.LoadCorpus(domain, data)
		if err != nil {
			return nil, err
		}
		corpus = c
	} else {
		spec := datagen.DomainByName(domain)
		if spec == nil {
			return nil, fmt.Errorf("unknown domain %q", domain)
		}
		if sources > 0 {
			spec.NumSources = sources
		}
		fmt.Fprintf(os.Stderr, "generating %s (%d sources)...\n", spec.Name, spec.NumSources)
		c, err := datagen.Generate(spec)
		if err != nil {
			return nil, err
		}
		corpus = c.Corpus
	}
	if sources > 0 && sources < len(corpus.Sources) {
		corpus = corpus.Prefix(sources)
	}
	return corpus, nil
}

// System restores the snapshot at load, or sets up a system over
// Corpus(domain, data, sources) when load is empty.
func System(domain, data, load string, sources int, cfg core.Config) (*core.System, error) {
	if load != "" {
		fmt.Fprintf(os.Stderr, "restoring snapshot %s...\n", load)
		sys, err := persist.LoadFile(load, cfg)
		if errors.Is(err, persist.ErrCorrupt) {
			return nil, fmt.Errorf("snapshot %s is damaged and cannot be restored (set up from -domain or -data instead): %w", load, err)
		}
		return sys, err
	}
	corpus, err := Corpus(domain, data, sources)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "setting up the integration system over %d sources...\n", len(corpus.Sources))
	return core.Setup(corpus, cfg)
}
