// Package persist serializes a fully configured integration system — the
// corpus, the probabilistic mediated schema, every p-mapping and the
// consolidated schema — to a versioned JSON snapshot, and restores it
// into a ready-to-query core.System without re-running attribute matching
// or entropy maximization. A pay-as-you-go deployment sets up once,
// snapshots, and serves queries from the snapshot thereafter.
package persist

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"udi/internal/core"
	"udi/internal/mediate"
	"udi/internal/pmapping"
	"udi/internal/schema"
)

// FormatVersion identifies the snapshot layout; Load rejects snapshots
// written by an incompatible version. Version 1 also carried every
// source's consolidated p-mappings ("consolidated_mappings"); version 2
// drops them, because a restored system consolidates on first use. Load
// still reads version 1 and ignores that field, while a version-1 reader
// refuses version 2 rather than serve a system without them.
const FormatVersion = 2

// ErrCorrupt reports a snapshot whose bytes do not decode into a loadable
// system — a truncated or damaged file must fail loudly at startup, never
// restore as an empty-but-queryable system. Wrapped errors carry the
// approximate byte offset of the damage.
var ErrCorrupt = errors.New("persist: corrupt snapshot")

type snapshot struct {
	Version int               `json:"version"`
	Domain  string            `json:"domain"`
	Sources []core.SourceData `json:"sources"`
	PMed    pmedDTO           `json:"p_med_schema"`
	Maps    []SourceMaps      `json:"p_mappings"`
	Target  [][]string        `json:"consolidated_schema"`
	// WALSeq is the sequence number of the last write-ahead-log record
	// this snapshot covers (see Store); recovery replays only records
	// with a higher sequence. Zero for standalone snapshots.
	WALSeq uint64 `json:"wal_seq,omitempty"`
}

type pmedDTO struct {
	Schemas [][][]string `json:"schemas"` // schema -> cluster -> names
	Probs   []float64    `json:"probs"`
}

// SourceMaps is one source's p-mappings as the snapshot stores them, one
// per schema of the p-med-schema they are indexed by. It is the repo's
// one p-mapping codec: the shard RPC's restructure body carries the same
// DTO. Weights and probabilities travel as JSON numbers, which
// encoding/json writes in the shortest form that parses back to the
// same float64, so a round trip is bit-exact.
type SourceMaps struct {
	Source string    `json:"source"`
	PerMed []PMapDTO `json:"per_schema"`
}

// PMapDTO is one p-mapping on the wire.
type PMapDTO struct {
	Groups  []GroupDTO `json:"groups"`
	Dropped int        `json:"dropped_corrs,omitempty"`
}

// GroupDTO is one correspondence group with its possible mappings.
type GroupDTO struct {
	Corrs    []CorrDTO `json:"corrs"`
	Mappings [][]int   `json:"mappings"`
	Probs    []float64 `json:"probs"`
}

// CorrDTO is one weighted correspondence.
type CorrDTO struct {
	SrcAttr string  `json:"src"`
	MedIdx  int     `json:"med"`
	Weight  float64 `json:"w"`
}

// EncodeMaps flattens the p-mappings of the named sources, in that
// order; a name without p-mappings is skipped.
func EncodeMaps(names []string, maps map[string][]*pmapping.PMapping) []SourceMaps {
	var out []SourceMaps
	for _, name := range names {
		pms, ok := maps[name]
		if !ok {
			continue
		}
		sm := SourceMaps{Source: name}
		for _, pm := range pms {
			dto := PMapDTO{Dropped: pm.DroppedCorrs}
			for _, g := range pm.Groups {
				gd := GroupDTO{Mappings: g.Mappings, Probs: g.Probs}
				for _, c := range g.Corrs {
					gd.Corrs = append(gd.Corrs, CorrDTO{c.SrcAttr, c.MedIdx, c.Weight})
				}
				dto.Groups = append(dto.Groups, gd)
			}
			sm.PerMed = append(sm.PerMed, dto)
		}
		out = append(out, sm)
	}
	return out
}

// DecodeMaps rebuilds p-mappings onto pmed's schemas, validating each:
// one per schema, no source twice, and every group passing
// ValidateGroup against the schema it maps onto. Bytes that do not
// describe servable p-mappings fail here, never at query time.
func DecodeMaps(sms []SourceMaps, pmed *schema.PMedSchema) (map[string][]*pmapping.PMapping, error) {
	maps := make(map[string][]*pmapping.PMapping, len(sms))
	for _, sm := range sms {
		if _, dup := maps[sm.Source]; dup {
			return nil, fmt.Errorf("source %q has p-mappings twice", sm.Source)
		}
		if len(sm.PerMed) != pmed.Len() {
			return nil, fmt.Errorf("source %q has %d p-mappings for %d schemas",
				sm.Source, len(sm.PerMed), pmed.Len())
		}
		pms := make([]*pmapping.PMapping, 0, len(sm.PerMed))
		for l, dto := range sm.PerMed {
			m := pmed.Schemas[l]
			pm := &pmapping.PMapping{SourceName: sm.Source, Med: m, DroppedCorrs: dto.Dropped}
			for _, gd := range dto.Groups {
				g := pmapping.Group{Mappings: gd.Mappings, Probs: gd.Probs}
				for _, c := range gd.Corrs {
					g.Corrs = append(g.Corrs, pmapping.Corr{SrcAttr: c.SrcAttr, MedIdx: c.MedIdx, Weight: c.Weight})
				}
				if err := ValidateGroup(g, len(m.Attrs)); err != nil {
					return nil, fmt.Errorf("source %q schema %d: %w", sm.Source, l, err)
				}
				pm.Groups = append(pm.Groups, g)
			}
			pms = append(pms, pm)
		}
		maps[sm.Source] = pms
	}
	return maps, nil
}

// Save writes a gzip-compressed JSON snapshot of the system.
func Save(w io.Writer, sys *core.System) error { return saveSnapshot(w, sys, 0) }

// saveSnapshot is Save carrying the WAL sequence the snapshot covers.
func saveSnapshot(w io.Writer, sys *core.System, walSeq uint64) error {
	snap := snapshot{
		Version: FormatVersion,
		Domain:  sys.Corpus.Domain,
		PMed:    pmedDTO{Schemas: sys.Med.PMed.Clusters(), Probs: sys.Med.PMed.Probs},
		Target:  sys.Target.Clusters(),
		WALSeq:  walSeq,
	}
	for _, s := range sys.Corpus.Sources {
		snap.Sources = append(snap.Sources, core.DataOf(s))
	}
	names := make([]string, len(sys.Corpus.Sources))
	for i, s := range sys.Corpus.Sources {
		names[i] = s.Name
	}
	snap.Maps = EncodeMaps(names, sys.Maps)

	gz := gzip.NewWriter(w)
	enc := json.NewEncoder(gz)
	if err := enc.Encode(&snap); err != nil {
		gz.Close()
		return fmt.Errorf("persist: encode: %w", err)
	}
	return gz.Close()
}

// countingReader tracks bytes consumed so corruption errors can report
// where in the file the damage sits.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Load reads a snapshot and restores a ready-to-query system. Damage —
// a stream that is not gzip, is truncated mid-JSON, or decodes into a
// structurally invalid system (no sources, bad probabilities, dangling
// mapping references) — returns an error wrapping ErrCorrupt with the
// byte offset reached, so callers can distinguish "corrupt file" from
// "wrong version" or I/O failures.
func Load(r io.Reader, cfg core.Config) (*core.System, error) {
	sys, _, err := load(r, cfg)
	return sys, err
}

// load is Load returning the snapshot's WAL sequence too (see Store).
func load(r io.Reader, cfg core.Config) (*core.System, uint64, error) {
	cr := &countingReader{r: r}
	gz, err := gzip.NewReader(cr)
	if err != nil {
		return nil, 0, fmt.Errorf("persist: at byte %d: %w (%v)", cr.n, ErrCorrupt, err)
	}
	defer gz.Close()
	var snap snapshot
	if err := json.NewDecoder(gz).Decode(&snap); err != nil {
		return nil, 0, fmt.Errorf("persist: decode at byte %d: %w (%v)", cr.n, ErrCorrupt, err)
	}
	if snap.Version != FormatVersion && snap.Version != 1 {
		return nil, 0, fmt.Errorf("persist: snapshot version %d, want %d", snap.Version, FormatVersion)
	}
	// A snapshot that decodes but describes no sources is damage (Save
	// always writes the full corpus), not a tiny deployment: restoring it
	// would serve an empty system that answers every query with nothing.
	if len(snap.Sources) == 0 {
		return nil, 0, fmt.Errorf("persist: at byte %d: %w (snapshot has no sources)", cr.n, ErrCorrupt)
	}
	corrupt := func(err error) error {
		return fmt.Errorf("persist: at byte %d: %w (%v)", cr.n, ErrCorrupt, err)
	}

	var sources []*schema.Source
	for _, s := range snap.Sources {
		src, err := s.Source()
		if err != nil {
			return nil, 0, corrupt(err)
		}
		sources = append(sources, src)
	}
	corpus, err := schema.NewCorpus(snap.Domain, sources)
	if err != nil {
		return nil, 0, corrupt(err)
	}

	pmed, err := schema.PMedFromClusters(snap.PMed.Schemas, snap.PMed.Probs)
	if err != nil {
		return nil, 0, corrupt(err)
	}

	maps, err := DecodeMaps(snap.Maps, pmed)
	if err != nil {
		return nil, 0, corrupt(err)
	}

	target, err := schema.FromClusters(snap.Target)
	if err != nil {
		return nil, 0, corrupt(err)
	}

	sys, err := core.Restore(corpus, cfg, &mediate.Result{PMed: pmed}, maps, target)
	if err != nil {
		return nil, 0, err
	}
	return sys, snap.WALSeq, nil
}

// ValidateGroup checks the structural sanity of a decoded group mapping
// onto a mediated schema of width attributes, so damaged bytes fail fast
// instead of panicking or misranking at query time: one probability per
// mapping, each in [0, 1] (NaN refused), summing to 1 ± 1e-6; every
// mapping index naming one of the group's correspondences; every
// correspondence naming one of the schema's attributes.
func ValidateGroup(g pmapping.Group, width int) error {
	if len(g.Mappings) != len(g.Probs) {
		return fmt.Errorf("group has %d mappings but %d probabilities", len(g.Mappings), len(g.Probs))
	}
	sum := 0.0
	for _, p := range g.Probs {
		if !(p >= 0 && p <= 1+1e-9) {
			return fmt.Errorf("probability %g out of range", p)
		}
		sum += p
	}
	if !(sum >= 1-1e-6 && sum <= 1+1e-6) {
		return fmt.Errorf("group probabilities sum to %g", sum)
	}
	for _, m := range g.Mappings {
		for _, ci := range m {
			if ci < 0 || ci >= len(g.Corrs) {
				return fmt.Errorf("mapping references correspondence %d of %d", ci, len(g.Corrs))
			}
		}
	}
	for _, c := range g.Corrs {
		if c.MedIdx < 0 || c.MedIdx >= width {
			return fmt.Errorf("correspondence names mediated attribute %d of %d", c.MedIdx, width)
		}
	}
	return nil
}

// writeFileAtomic writes via a temp file in path's directory, fsyncs,
// and renames over path, so a crash at any point leaves either the old
// file or the new one — never a partial write. The directory is fsynced
// after the rename so the new name itself survives a crash.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	cleanup := func() {
		tmp.Close()
		os.Remove(tmp.Name())
	}
	if err := write(tmp); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("persist: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("persist: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("persist: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry is durable. A
// directory that cannot be opened is an error: the rename it should make
// durable may not survive a crash. Some filesystems reject directory
// fsync; that is not a durability bug on the ones that matter, so only
// an unsupported error from Sync is ignored.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: sync %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return fmt.Errorf("persist: sync %s: %w", dir, err)
	}
	return nil
}

// SaveFile snapshots the system to path atomically: the snapshot is
// written to a temp file, fsynced, and renamed into place, so an
// existing valid snapshot is never replaced by a partial one.
func SaveFile(path string, sys *core.System) error {
	return writeFileAtomic(path, func(w io.Writer) error { return Save(w, sys) })
}

// LoadFile restores a system from a snapshot file.
func LoadFile(path string, cfg core.Config) (*core.System, error) {
	sys, _, err := loadFileMeta(path, cfg)
	return sys, err
}

// loadFileMeta is LoadFile returning the snapshot's WAL sequence too.
func loadFileMeta(path string, cfg core.Config) (*core.System, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("persist: %w", err)
	}
	defer f.Close()
	return load(f, cfg)
}
