package shardrpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strings"
	"sync"

	"udi/internal/answer"
)

// This file is the POST /v1/shard/query response body: one shard's part
// — the merge inputs its Snapshot.ScanCtx returns: the tuple table, each
// source's run of tuple probabilities and its occurrence count, plus the
// instances when the request asked for them — as one binary frame. A host never
// ranks, so there is no ranking to ship: the coordinator ranks the
// gathered parts once through answer.MergeResultSets, which puts sources
// in global corpus order so answer.Rank's IEEE disjunction is
// bit-identical to the single engine.
//
// Frame layout (fixed-width integers little-endian, `uv` an unsigned and
// `sv` a zig-zag signed LEB128 varint, as encoding/binary writes them):
//
//	header    | "UDIP" | version uint32 | epoch uint64 |
//	strings   | uv count | count × ( uv length | bytes ) |
//	tuples    | uv count | count × ( uv arity | arity × uv string id ) |
//	instances | uv count | runs until count is reached, each
//	          |   uv source string id | uv length (≥ 1) |
//	          |   length × ( sv row delta | uv tuple id | prob bits uint64 ) |
//	sources   | uv count | count × ( uv source string id | uv occurrences |
//	          |   uv entries | entries × ( uv tuple id | prob bits uint64 ) ) |
//	trailer   | length uint32 | CRC-32 (IEEE) uint32 |
//
// The instance count is 0 unless the request set QueryRequest.Instances:
// a by-table answer reads only each source's occurrence count (its
// distinct (row, tuple) pairs, which the merge sums exactly), so a
// by-table frame is the string and tuple tables plus the sources section.
//
// The tuple table is the part's own (answer.ResultSet.Tuples), id for
// id, and a source's entries are its run as it stands: table ids in the
// order the source first produced them. A scan fixes both orders
// independently of its scheduling, so one result encodes to one byte
// string. Only an instance whose values spell a table tuple's key
// differently adds a tuple after the table. The decoder lists each key
// once in the part's table and refuses a source that names one twice.
//
// Every distinct string (source names included) and every distinct tuple
// crosses once; a tuple is its arity and string ids, never a joined key,
// so [""] and values holding the key separator round-trip exactly. Row
// deltas restart at 0 with each run. Probabilities are raw
// math.Float64bits: the merge multiplies them, and `==` on the merged
// answers is the topology's invariant. The trailer is the internal/wal
// frame idiom moved to the end so the host can write the frame in one
// pass: the byte count before it and the checksum of those bytes. A frame
// that fails either check is a transport fault (the coordinator retries),
// never a different ResultSet.

const (
	partMagic       = "UDIP"
	partHeaderSize  = 4 + 4 + 8
	partTrailerSize = 4 + 4
	// partInstanceMin, partSourceMin and partEntryMin are the fewest
	// bytes one instance, one source and one per-source entry occupy;
	// declared counts are checked against them before anything is
	// allocated.
	partInstanceMin = 1 + 1 + 8
	partSourceMin   = 1 + 1 + 1
	partEntryMin    = 1 + 8
	// maxOccurrences bounds one source's declared occurrence count: a
	// scan numbers a source's occurrences in int32.
	maxOccurrences = math.MaxInt32

	// MaxPartFrame bounds a frame the decoder accepts, and separately the
	// tuple-key text it materialises from one (dictionary encoding lets a
	// small frame name long values many times).
	MaxPartFrame = 64 << 20
)

// ErrBadPart marks a partial-result frame the decoder refused: truncated,
// oversized, failing its checksum, or structurally invalid.
var ErrBadPart = errors.New("shardrpc: bad partial-result frame")

// partEncoder holds the state of one frame under construction. The
// string and tuple tables precede the sections that discover their
// entries, so each part is built in its own buffer and assembled last.
type partEncoder struct {
	strs, tups, body, frame []byte
	key                     []byte // scratch: the tuple key being looked up
	strIDs                  map[string]uint32
	tupIDs                  map[string]uint32 // by answer.TupleKey, filled for instances only
	tuples                  [][]string        // tuple id → values
}

var partEncoders = sync.Pool{New: func() any {
	return &partEncoder{strIDs: map[string]uint32{}, tupIDs: map[string]uint32{}}
}}

// partEncoderKeep is the largest frame whose encoder returns to the pool;
// one outsized result must not pin its buffers and maps.
const partEncoderKeep = 4 << 20

// release returns the encoder, and the frame it handed out, to the pool.
func (e *partEncoder) release() {
	if cap(e.frame) > partEncoderKeep {
		return
	}
	clear(e.strIDs)
	clear(e.tupIDs)
	clear(e.tuples)
	e.strs, e.tups, e.body, e.tuples = e.strs[:0], e.tups[:0], e.body[:0], e.tuples[:0]
	partEncoders.Put(e)
}

func (e *partEncoder) str(s string) uint64 {
	id, ok := e.strIDs[s]
	if !ok {
		id = uint32(len(e.strIDs))
		e.strIDs[s] = id
		e.strs = binary.AppendUvarint(e.strs, uint64(len(s)))
		e.strs = append(e.strs, s...)
	}
	return uint64(id)
}

// addTuple appends values to the tuple table and returns its id.
func (e *partEncoder) addTuple(values []string) uint32 {
	id := uint32(len(e.tuples))
	e.tuples = append(e.tuples, values)
	e.tups = binary.AppendUvarint(e.tups, uint64(len(values)))
	for _, v := range values {
		e.tups = binary.AppendUvarint(e.tups, e.str(v))
	}
	return id
}

// instanceTuple returns the table id of an instance's values. Lookups
// go by tuple key built in scratch, so an instance of a tuple already
// listed allocates nothing.
func (e *partEncoder) instanceTuple(values []string) uint64 {
	e.key = e.key[:0]
	for i, v := range values {
		if i > 0 {
			e.key = append(e.key, '\x1f')
		}
		e.key = append(e.key, v...)
	}
	id, seen := e.tupIDs[string(e.key)]
	if seen && slices.Equal(e.tuples[id], values) {
		return uint64(id)
	}
	// Different tuples share a key only when a value holds the separator
	// (or one of them is empty): scans that met them in another order
	// keep other values under one key. The first keeps the index and
	// each later instance of the other gets an entry of its own.
	fresh := e.addTuple(values)
	if !seen {
		e.tupIDs[string(e.key)] = fresh
	}
	return uint64(fresh)
}

// encode builds the frame. The result is the encoder's own buffer, valid
// until release. The part's tuple table is the frame's, id for id, so
// the runs cross as they stand; only an instance whose values the table
// lists under another spelling adds a tuple after it.
func (e *partEncoder) encode(epoch uint64, rs *answer.ResultSet) []byte {
	for _, tu := range rs.Tuples {
		e.addTuple(tu.Values)
	}
	if len(rs.Instances) > 0 {
		for id, tu := range rs.Tuples {
			e.tupIDs[tu.Key] = uint32(id)
		}
	}
	b := binary.AppendUvarint(e.body, uint64(len(rs.Instances)))
	for i := 0; i < len(rs.Instances); {
		src := rs.Instances[i].Source
		j := i + 1
		for j < len(rs.Instances) && rs.Instances[j].Source == src {
			j++
		}
		b = binary.AppendUvarint(b, e.str(src))
		b = binary.AppendUvarint(b, uint64(j-i))
		row := 0
		for _, in := range rs.Instances[i:j] {
			b = binary.AppendVarint(b, int64(in.Row-row))
			b = binary.AppendUvarint(b, e.instanceTuple(in.Values))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(in.Prob))
			row = in.Row
		}
		i = j
	}
	b = binary.AppendUvarint(b, uint64(len(rs.PerSource)))
	for _, sp := range rs.PerSource {
		b = binary.AppendUvarint(b, e.str(sp.Source))
		b = binary.AppendUvarint(b, uint64(sp.Occurrences))
		b = binary.AppendUvarint(b, uint64(len(sp.IDs)))
		for i, id := range sp.IDs {
			b = binary.AppendUvarint(b, uint64(id))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(sp.Probs[i]))
		}
	}
	e.body = b

	f := append(e.frame[:0], partMagic...)
	f = binary.LittleEndian.AppendUint32(f, Version)
	f = binary.LittleEndian.AppendUint64(f, epoch)
	f = binary.AppendUvarint(f, uint64(len(e.strIDs)))
	f = append(f, e.strs...)
	f = binary.AppendUvarint(f, uint64(len(e.tuples)))
	f = append(f, e.tups...)
	f = append(f, e.body...)
	f = binary.LittleEndian.AppendUint32(f, uint32(len(f)))
	f = binary.LittleEndian.AppendUint32(f, crc32.ChecksumIEEE(f[:len(f)-4]))
	e.frame = f
	return f
}

// EncodePart returns one shard's partial result as a frame stamped with
// the epoch it was computed at.
func EncodePart(epoch uint64, rs *answer.ResultSet) []byte {
	e := partEncoders.Get().(*partEncoder)
	defer e.release()
	return slices.Clone(e.encode(epoch, rs))
}

// partReader walks a frame's sections. The first failure sticks: every
// later read returns a zero value, and every loop over a declared count
// is bounded by the bytes that count was checked against.
type partReader struct {
	b   []byte
	off int
	err error
}

func (r *partReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: offset %d: %s", ErrBadPart, r.off, fmt.Sprintf(format, args...))
	}
}

func (r *partReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

func (r *partReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

// count reads a declared element count and refuses one the rest of the
// frame cannot hold at min bytes per element.
func (r *partReader) count(min int) int {
	n := r.uvarint()
	if n > uint64((len(r.b)-r.off)/min) {
		r.fail("count %d exceeds the %d bytes left", n, len(r.b)-r.off)
		return 0
	}
	return int(n)
}

// index reads an id into a table of n entries.
func (r *partReader) index(n int) int {
	id := r.uvarint()
	if r.err == nil && id >= uint64(n) {
		r.fail("id %d outside a table of %d", id, n)
	}
	if r.err != nil {
		return -1
	}
	return int(id)
}

func (r *partReader) prob() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b)-r.off < 8 {
		r.fail("truncated probability")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return math.Float64frombits(v)
}

// strings reads the string table into substrings of one copy of it.
func (r *partReader) strings() []string {
	n := r.count(1)
	start := r.off
	for i := 0; i < n && r.err == nil; i++ {
		r.off += r.count(1)
	}
	if r.err != nil {
		return nil
	}
	text := string(r.b[start:r.off])
	strs := make([]string, n)
	r.off = start
	for i := range strs {
		l := int(r.uvarint())
		strs[i] = text[r.off-start : r.off-start+l]
		r.off += l
	}
	return strs
}

// tuples reads the tuple table: every frame tuple's values, the part's
// tuple table — each key listed once, under its first spelling — and
// each frame tuple's id in it. Instances keep the spelling they name;
// runs name the part's table. The keys are windows of one string, built
// once the table is known not to expand past MaxPartFrame.
func (r *partReader) tuples(strs []string) (values [][]string, table []answer.Tuple, canon []int32) {
	values = make([][]string, r.count(1))
	var arena []string
	keyBudget := MaxPartFrame
	for i := range values {
		lo, arity := len(arena), r.count(1)
		keyBudget -= arity
		for j := 0; j < arity && r.err == nil; j++ {
			if id := r.index(len(strs)); id >= 0 {
				arena = append(arena, strs[id])
				keyBudget -= len(strs[id])
			}
		}
		if keyBudget < 0 {
			r.fail("tuple keys exceed %d bytes", MaxPartFrame)
		}
		if r.err != nil {
			return nil, nil, nil
		}
		values[i] = arena[lo:len(arena):len(arena)]
	}
	var text strings.Builder
	text.Grow(MaxPartFrame - keyBudget)
	for _, vs := range values {
		for j, v := range vs {
			if j > 0 {
				text.WriteByte('\x1f')
			}
			text.WriteString(v)
		}
	}
	keys := text.String()
	table = make([]answer.Tuple, 0, len(values))
	canon = make([]int32, len(values))
	byKey := make(map[string]int32, len(values))
	off := 0
	for i, vs := range values {
		n := max(len(vs)-1, 0)
		for _, v := range vs {
			n += len(v)
		}
		key := keys[off : off+n]
		off += n
		id, ok := byKey[key]
		if !ok {
			id = int32(len(table))
			byKey[key] = id
			table = append(table, answer.Tuple{Key: key, Values: vs})
		}
		canon[i] = id
	}
	return values, table, canon
}

// DecodePart rebuilds the partial result for answer.MergeResultSets and
// returns the epoch the frame was stamped with. Every error wraps
// ErrBadPart.
func DecodePart(frame []byte) (*answer.ResultSet, uint64, error) {
	if len(frame) > MaxPartFrame {
		return nil, 0, fmt.Errorf("%w: %d bytes exceed the %d-byte bound", ErrBadPart, len(frame), MaxPartFrame)
	}
	end := len(frame) - partTrailerSize
	if end < partHeaderSize {
		return nil, 0, fmt.Errorf("%w: truncated to %d bytes", ErrBadPart, len(frame))
	}
	if n := binary.LittleEndian.Uint32(frame[end:]); n != uint32(end) {
		return nil, 0, fmt.Errorf("%w: trailer declares %d bytes, frame holds %d", ErrBadPart, n, end)
	}
	if crc32.ChecksumIEEE(frame[:end]) != binary.LittleEndian.Uint32(frame[end+4:]) {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrBadPart)
	}
	if string(frame[:4]) != partMagic {
		return nil, 0, fmt.Errorf("%w: bad magic %q", ErrBadPart, frame[:4])
	}
	if v := binary.LittleEndian.Uint32(frame[4:]); v != Version {
		return nil, 0, fmt.Errorf("%w: protocol version %d, this side speaks %d", ErrBadPart, v, Version)
	}
	epoch := binary.LittleEndian.Uint64(frame[8:])

	r := &partReader{b: frame[:end], off: partHeaderSize}
	strs := r.strings()
	values, table, canon := r.tuples(strs)
	rs := &answer.ResultSet{}
	if len(table) > 0 {
		rs.Tuples = table
	}

	nInst := r.count(partInstanceMin)
	if nInst > 0 {
		rs.Instances = make([]answer.Instance, 0, nInst)
	}
	for len(rs.Instances) < nInst && r.err == nil {
		src := r.index(len(strs))
		n := r.count(partInstanceMin)
		if n == 0 || n > nInst-len(rs.Instances) {
			r.fail("run of %d instances with %d left", n, nInst-len(rs.Instances))
		}
		row := 0
		for i := 0; i < n && r.err == nil; i++ {
			row += int(r.varint())
			t, p := r.index(len(values)), r.prob()
			if r.err == nil {
				rs.Instances = append(rs.Instances, answer.Instance{Source: strs[src], Row: row, Values: values[t], Prob: p})
			}
		}
	}

	// The runs of every source share two slices, sized by the entries the
	// rest of the frame can hold; named[id] is 1 + the index of the last
	// source that named table tuple id.
	nSrc := r.count(partSourceMin)
	var (
		ids   []int32
		probs []float64
		named []int32
	)
	if nSrc > 0 {
		rs.PerSource = make([]answer.SourceTupleProbs, 0, nSrc)
		room := (len(r.b) - r.off) / partEntryMin
		ids, probs, named = make([]int32, 0, room), make([]float64, 0, room), make([]int32, len(table))
	}
	for len(rs.PerSource) < nSrc && r.err == nil {
		src := r.index(len(strs))
		occ := r.uvarint()
		if occ > maxOccurrences {
			r.fail("source declares %d occurrences", occ)
		}
		n := r.count(partEntryMin)
		lo, stamp := len(ids), int32(len(rs.PerSource))+1
		for i := 0; i < n && r.err == nil; i++ {
			t, p := r.index(len(values)), r.prob()
			if r.err != nil {
				break
			}
			if id := canon[t]; named[id] == stamp {
				r.fail("source %q repeats a tuple key", strs[src])
			} else {
				named[id] = stamp
				ids, probs = append(ids, id), append(probs, p)
			}
		}
		if r.err == nil {
			rs.PerSource = append(rs.PerSource, answer.SourceTupleProbs{
				Source: strs[src], IDs: ids[lo:len(ids):len(ids)], Probs: probs[lo:len(probs):len(probs)], Occurrences: int(occ),
			})
		}
	}
	if r.err == nil && r.off != len(r.b) {
		r.fail("%d bytes after the last section", len(r.b)-r.off)
	}
	if r.err != nil {
		return nil, 0, r.err
	}
	return rs, epoch, nil
}
