// Package csvio loads and stores corpora as directories of CSV files, one
// file per data source with a header row of attribute names. This is the
// bridge between the integration system and user-supplied data: point the
// CLI at a directory of CSVs scraped from anywhere and UDI self-configures
// over them, exactly as the paper's system did over web-extracted tables.
package csvio

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"udi/internal/schema"
)

// LoadCorpus reads every *.csv file in dir as one source; the file name
// (without extension) becomes the source name, the first row the
// attribute names. Ragged rows are padded or truncated to the header
// width, matching how web tables are cleaned in practice.
func LoadCorpus(domain, dir string) (*schema.Corpus, error) {
	var sources []*schema.Source
	if err := StreamCorpus(dir, 0, func(all []*schema.Source) error {
		sources = all
		return nil
	}); err != nil {
		return nil, err
	}
	return schema.NewCorpus(domain, sources)
}

// StreamCorpus reads every *.csv file in dir (sorted, the LoadCorpus
// order) and hands the sources to fn in batches of at most batch
// (batch <= 0 means one batch of everything). Only one batch of parsed
// sources is held in memory at a time, so an arbitrarily large directory
// imports with flat memory when fn forwards each batch into the system
// (e.g. core.AddSources) instead of accumulating it. fn errors abort the
// walk unchanged.
func StreamCorpus(dir string, batch int, fn func([]*schema.Source) error) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("csvio: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(strings.ToLower(e.Name()), ".csv") {
			continue
		}
		names = append(names, e.Name())
	}
	if len(names) == 0 {
		return fmt.Errorf("csvio: no .csv files in %s", dir)
	}
	sort.Strings(names)
	if batch <= 0 {
		batch = len(names)
	}
	pending := make([]*schema.Source, 0, batch)
	for _, name := range names {
		src, err := LoadSource(strings.TrimSuffix(name, filepath.Ext(name)), filepath.Join(dir, name))
		if err != nil {
			return err
		}
		pending = append(pending, src)
		if len(pending) == batch {
			if err := fn(pending); err != nil {
				return err
			}
			pending = make([]*schema.Source, 0, batch)
		}
	}
	if len(pending) > 0 {
		return fn(pending)
	}
	return nil
}

// LoadSource reads one CSV file as a source.
func LoadSource(name, path string) (*schema.Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("csvio: %w", err)
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.FieldsPerRecord = -1 // tolerate ragged web tables
	records, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("csvio: %s: %w", path, err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("csvio: %s: empty file", path)
	}
	header := records[0]
	attrs := make([]string, 0, len(header))
	seen := map[string]bool{}
	for i, h := range header {
		h = strings.TrimSpace(h)
		if h == "" {
			h = fmt.Sprintf("col%d", i+1)
		}
		// Deduplicate repeated headers the way spreadsheet importers do.
		base, n := h, 2
		for seen[h] {
			h = fmt.Sprintf("%s_%d", base, n)
			n++
		}
		seen[h] = true
		attrs = append(attrs, h)
	}
	rows := make([][]string, 0, len(records)-1)
	for _, rec := range records[1:] {
		row := make([]string, len(attrs))
		for i := range row {
			if i < len(rec) {
				row[i] = strings.TrimSpace(rec[i])
			}
		}
		rows = append(rows, row)
	}
	return schema.NewSource(name, attrs, rows)
}

// WriteCorpus stores every source of the corpus as dir/<source>.csv,
// creating dir if needed.
func WriteCorpus(c *schema.Corpus, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("csvio: %w", err)
	}
	for _, src := range c.Sources {
		if err := WriteSource(src, filepath.Join(dir, src.Name+".csv")); err != nil {
			return err
		}
	}
	return nil
}

// WriteSource stores one source as a CSV file with a header row.
func WriteSource(src *schema.Source, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("csvio: %w", err)
	}
	bw := bufio.NewWriter(f)
	w := csv.NewWriter(bw)
	for _, rec := range append([][]string{src.Attrs}, src.Rows...) {
		// encoding/csv writes a lone empty field as a blank line, which its
		// reader skips; quote it so the row survives the round trip.
		if len(rec) == 1 && rec[0] == "" {
			w.Flush()
			_, err = bw.WriteString("\"\"\n")
		} else {
			err = w.Write(rec)
		}
		if err != nil {
			f.Close()
			return fmt.Errorf("csvio: %w", err)
		}
	}
	w.Flush()
	if err := errors.Join(w.Error(), bw.Flush()); err != nil {
		f.Close()
		return fmt.Errorf("csvio: %w", err)
	}
	return f.Close()
}
