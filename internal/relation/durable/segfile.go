package durable

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/relation"
)

// A segment file is one sealed span [lo, hi), spilled at seal time and
// immutable forever after. Layout: a header page, then one column page per
// attribute, in schema order.
//
//	header page  JSON: span, schema, column-page directory
//	column page  numeric:     hi-lo × 8-byte LE float64 bits (a dense block)
//	             categorical: u32 dictCount, dictCount × (u32 len + bytes)
//	                          of the segment-local sorted dictionary, then
//	                          hi-lo × u32 codes into it
//
// Every page carries the format.go framing (length + CRC32C). Column-page
// offsets in the directory are relative to the end of the header page —
// the header cannot know its own encoded size before it is encoded.
//
// Dictionaries are per-segment and sorted; Store.Relation hands each
// decoded page to relation.AppendPages, which translates its codes into
// the relation's dictionary through one table per page. Headers written
// before zone maps were deleted also carry a "zones" array (per-attribute
// min/max or value sets); the reader ignores it, so those stores open
// unchanged.
//
// Spill is atomic per segment: write seg-….tmp, fsync, rename into place,
// fsync the directory. The manifest flips to reference the segment only
// after all of that, so a crash mid-spill leaves an orphan .tmp the next
// Open sweeps away.

const segMagic = "DSEG1"

// segPage locates one column page: offset relative to the end of the header
// page, and the framed length.
type segPage struct {
	Off int64 `json:"off"`
	Len int64 `json:"len"`
}

// segHeader is the header page payload.
type segHeader struct {
	Magic  string     `json:"magic"`
	Lo     int        `json:"lo"`
	Hi     int        `json:"hi"`
	Schema []attrMeta `json:"schema"`
	Pages  []segPage  `json:"pages"` // positionally aligned to Schema
}

func segFileName(lo, hi int) string { return fmt.Sprintf("seg-%010d-%010d.seg", lo, hi) }

// pageBytes is the in-memory size of one decoded column page, for the
// LoadedBytes counter.
func pageBytes(p relation.Page) uint64 {
	b := 8*uint64(len(p.Nums)) + 4*uint64(len(p.Codes))
	for _, v := range p.Dict {
		b += uint64(len(v)) + 16
	}
	return b
}

// encodeSegColumns builds the column-page payloads of rows, one per
// attribute in schema order.
func encodeSegColumns(schema *relation.Schema, rows []relation.Tuple) [][]byte {
	n := schema.Len()
	pages := make([][]byte, n)
	for a := 0; a < n; a++ {
		if schema.Attr(a).Type == relation.Numeric {
			payload := make([]byte, 0, 8*len(rows))
			for _, t := range rows {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(t[a].Num))
				payload = append(payload, b[:]...)
			}
			pages[a] = payload
			continue
		}
		// Categorical: collect the span's distinct values, sort them into
		// the local dictionary, then emit codes against it.
		seen := make(map[string]uint32)
		vals := make([]string, 0, 16)
		for _, t := range rows {
			s := t[a].Str
			if _, ok := seen[s]; !ok {
				seen[s] = 0
				vals = append(vals, s)
			}
		}
		sort.Strings(vals)
		for c, v := range vals {
			seen[v] = uint32(c)
		}
		payload := make([]byte, 0, 4+4*len(rows))
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(len(vals)))
		payload = append(payload, b[:]...)
		for _, v := range vals {
			binary.LittleEndian.PutUint32(b[:], uint32(len(v)))
			payload = append(payload, b[:]...)
			payload = append(payload, v...)
		}
		for _, t := range rows {
			binary.LittleEndian.PutUint32(b[:], seen[t[a].Str])
			payload = append(payload, b[:]...)
		}
		pages[a] = payload
	}
	return pages
}

// writeSegment spills rows, the span [lo, lo+len(rows)), into a new
// segment file and returns its basename and on-disk size. The file lands
// via the tmp/fsync/rename/fsync-dir protocol; it is durable when
// writeSegment returns, but invisible to recovery until the manifest
// references it.
func (s *Store) writeSegment(ctx context.Context, lo int, rows []relation.Tuple) (name string, size int64, err error) {
	hi := lo + len(rows)
	pages := encodeSegColumns(s.schema, rows)
	hdr := segHeader{
		Magic:  segMagic,
		Lo:     lo,
		Hi:     hi,
		Schema: schemaMeta(s.schema),
		Pages:  make([]segPage, len(pages)),
	}
	off := int64(0)
	for a, p := range pages {
		hdr.Pages[a] = segPage{Off: off, Len: framedLen(len(p))}
		off += framedLen(len(p))
	}
	hdrPayload, err := json.Marshal(hdr)
	if err != nil {
		return "", 0, err
	}
	buf := framePage(nil, hdrPayload)
	for _, p := range pages {
		buf = framePage(buf, p)
	}

	name = segFileName(lo, hi)
	tmp := filepath.Join(s.dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", 0, err
	}
	if err := s.writeAll(ctx, f, buf); err != nil {
		f.Close()
		return "", 0, err
	}
	if err := s.fsyncFile(ctx, f); err != nil {
		f.Close()
		return "", 0, err
	}
	if err := f.Close(); err != nil {
		return "", 0, err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, name)); err != nil {
		return "", 0, err
	}
	if err := s.fsyncDir(ctx, s.dir); err != nil {
		return "", 0, err
	}
	return name, int64(len(buf)), nil
}

// readSegHeader reads and validates the header page of the segment file at
// path. ErrTorn/ErrCorrupt surface for quarantine decisions.
func readSegHeader(path string, schema *relation.Schema) (*segHeader, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	r := &countingReader{r: f}
	payload, err := readPage(r)
	if err != nil {
		return nil, 0, fmt.Errorf("segment header: %w", errOrTorn(err))
	}
	var hdr segHeader
	if err := json.Unmarshal(payload, &hdr); err != nil {
		return nil, 0, fmt.Errorf("segment header: %w: %v", ErrCorrupt, err)
	}
	if hdr.Magic != segMagic {
		return nil, 0, fmt.Errorf("segment header: %w: magic %q", ErrCorrupt, hdr.Magic)
	}
	if !sameSchema(hdr.Schema, schemaMeta(schema)) {
		return nil, 0, fmt.Errorf("segment header: %w: schema mismatch", ErrCorrupt)
	}
	if len(hdr.Pages) != schema.Len() {
		return nil, 0, fmt.Errorf("segment header: %w: %d pages, schema has %d attrs",
			ErrCorrupt, len(hdr.Pages), schema.Len())
	}
	return &hdr, r.n, nil
}

// errOrTorn maps io.EOF (empty file or page past the end) onto ErrTorn so
// callers see exactly the two quarantine-relevant shapes.
func errOrTorn(err error) error {
	if err == io.EOF {
		return ErrTorn
	}
	return err
}

// readSegColumn loads, checksums, and decodes one column page of the open
// segment file f. hdrEnd is the header page's on-disk size (column offsets
// are relative to it). Codes are not range-checked here:
// relation.AppendPages rejects a page whose codes overrun its dictionary.
func readSegColumn(f io.ReaderAt, hdr *segHeader, hdrEnd int64, attr int, schema *relation.Schema) (relation.Page, error) {
	name := schema.Attr(attr).Name
	pg := hdr.Pages[attr]
	payload, err := readPage(io.NewSectionReader(f, hdrEnd+pg.Off, pg.Len))
	if err != nil {
		return relation.Page{}, fmt.Errorf("column %q page: %w", name, errOrTorn(err))
	}
	rows := hdr.Hi - hdr.Lo
	if schema.Attr(attr).Type == relation.Numeric {
		if len(payload) != 8*rows {
			return relation.Page{}, fmt.Errorf("column %q page: %w: %d bytes for %d rows", name, ErrCorrupt, len(payload), rows)
		}
		nums := make([]float64, rows)
		for i := range nums {
			nums[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
		}
		return relation.Page{Nums: nums}, nil
	}
	if len(payload) < 4 {
		return relation.Page{}, fmt.Errorf("column %q page: %w: short dictionary header", name, ErrCorrupt)
	}
	nvals := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	dict := make([]string, 0, nvals)
	for i := 0; i < nvals; i++ {
		if len(payload) < 4 {
			return relation.Page{}, fmt.Errorf("column %q page: %w: truncated dictionary", name, ErrCorrupt)
		}
		n := int(binary.LittleEndian.Uint32(payload))
		payload = payload[4:]
		if n > len(payload) {
			return relation.Page{}, fmt.Errorf("column %q page: %w: dictionary entry overruns page", name, ErrCorrupt)
		}
		dict = append(dict, string(payload[:n]))
		payload = payload[n:]
	}
	if len(payload) != 4*rows {
		return relation.Page{}, fmt.Errorf("column %q page: %w: %d code bytes for %d rows", name, ErrCorrupt, len(payload), rows)
	}
	codes := make([]uint32, rows)
	for i := range codes {
		codes[i] = binary.LittleEndian.Uint32(payload[4*i:])
	}
	return relation.Page{Codes: codes, Dict: dict}, nil
}
