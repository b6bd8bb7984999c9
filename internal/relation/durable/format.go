// Package durable is the crash-consistent on-disk store of a relation's
// rows (DESIGN.md §15). Sealed segments spill to immutable per-segment
// files (a header page, then dense numeric blocks and local dictionary
// pages), the active tail is protected by a length-prefixed checksummed
// append WAL, and a generation-numbered manifest is replaced atomically
// (write-temp, fsync, rename, fsync-dir) so exactly one consistent view of
// the dataset is ever visible, no matter where a crash lands.
//
// Every byte that reaches disk travels inside a *page*: a u32 little-endian
// payload length, the payload, and a u32 CRC32C (Castagnoli) of the payload.
// A torn write leaves a page whose length header outruns the file or whose
// checksum fails; recovery treats either as "the record never happened".
//
// All writes flow through the store's injected helpers (writeAll, fsyncFile,
// fsyncDir) so the crash chaos suite can kill an ingest at any individual
// I/O operation — including mid-page, via faultinject's ShortWrite rules —
// and assert byte-identical recovery of the durable prefix.
package durable

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/relation"
	"repro/internal/resilience/faultinject"
)

// castagnoli is the CRC32C polynomial table; hardware-accelerated on amd64
// and arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxPagePayload bounds a single page. It exists so a corrupt length header
// (e.g. a bit flip turning 4 KiB into 4 GiB) fails fast as ErrCorrupt
// instead of driving a giant allocation.
const maxPagePayload = 1 << 28

// ErrTorn marks a page cut short by a crash: the length header or payload
// extends past the end of the file. For the WAL's final record this is the
// expected crash signature, not corruption.
var ErrTorn = errors.New("durable: torn page")

// ErrCorrupt marks a page whose bytes are all present but wrong: checksum
// mismatch or an absurd length header. Unlike a torn tail this means data
// loss inside the durable prefix, so callers quarantine rather than truncate.
var ErrCorrupt = errors.New("durable: corrupt page")

// framePage wraps payload into its on-disk framing, appending to dst.
func framePage(dst, payload []byte) []byte {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.Checksum(payload, castagnoli))
	return append(dst, sum[:]...)
}

// framedLen returns the on-disk size of a page holding n payload bytes.
func framedLen(n int) int64 { return int64(n) + 8 }

// readPage reads one page from r. It distinguishes the three outcomes
// recovery cares about: (payload, nil) for a good page, io.EOF exactly at a
// page boundary (clean end), ErrTorn when the file ends mid-page, and
// ErrCorrupt when the page is complete but fails its checksum or declares an
// absurd length.
func readPage(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, ErrTorn
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxPagePayload {
		return nil, fmt.Errorf("%w: page declares %d payload bytes", ErrCorrupt, n)
	}
	payload := make([]byte, int(n))
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, ErrTorn
	}
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, ErrTorn
	}
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(sum[:]); got != want {
		return nil, fmt.Errorf("%w: checksum %08x, want %08x", ErrCorrupt, got, want)
	}
	return payload, nil
}

// Tuple codec. A tuple encodes positionally against the schema: numeric
// cells as 8 little-endian bytes of math.Float64bits (NaN and ±0 survive
// exactly), categorical cells as a u32 length + raw bytes.

// appendTuple appends t's encoding to dst.
func appendTuple(dst []byte, schema *relation.Schema, t relation.Tuple) []byte {
	for i := 0; i < schema.Len(); i++ {
		if schema.Attr(i).Type == relation.Numeric {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(t[i].Num))
			dst = append(dst, b[:]...)
			continue
		}
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(t[i].Str)))
		dst = append(dst, n[:]...)
		dst = append(dst, t[i].Str...)
	}
	return dst
}

// decodeTuple decodes one tuple from b, which must hold exactly one
// encoding (a WAL record's full payload).
func decodeTuple(b []byte, schema *relation.Schema) (relation.Tuple, error) {
	t := make(relation.Tuple, schema.Len())
	for i := 0; i < schema.Len(); i++ {
		if schema.Attr(i).Type == relation.Numeric {
			if len(b) < 8 {
				return nil, fmt.Errorf("%w: tuple truncated at cell %d", ErrCorrupt, i)
			}
			t[i] = relation.NumberValue(math.Float64frombits(binary.LittleEndian.Uint64(b)))
			b = b[8:]
			continue
		}
		if len(b) < 4 {
			return nil, fmt.Errorf("%w: tuple truncated at cell %d", ErrCorrupt, i)
		}
		n := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if n > len(b) {
			return nil, fmt.Errorf("%w: string cell %d declares %d bytes, %d remain", ErrCorrupt, i, n, len(b))
		}
		t[i] = relation.StringValue(string(b[:n]))
		b = b[n:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after tuple", ErrCorrupt, len(b))
	}
	return t, nil
}

// attrMeta is the schema as serialized into WAL headers, segment headers,
// and the manifest; the three copies cross-check at Open.
type attrMeta struct {
	Name string `json:"name"`
	Type string `json:"type"` // "cat" | "num"
}

func schemaMeta(s *relation.Schema) []attrMeta {
	out := make([]attrMeta, s.Len())
	for i := 0; i < s.Len(); i++ {
		a := s.Attr(i)
		out[i] = attrMeta{Name: a.Name, Type: "cat"}
		if a.Type == relation.Numeric {
			out[i].Type = "num"
		}
	}
	return out
}

func metaSchema(attrs []attrMeta) (*relation.Schema, error) {
	as := make([]relation.Attribute, len(attrs))
	for i, a := range attrs {
		as[i] = relation.Attribute{Name: a.Name, Type: relation.Categorical}
		switch a.Type {
		case "num":
			as[i].Type = relation.Numeric
		case "cat":
		default:
			return nil, fmt.Errorf("durable: unknown attribute type %q", a.Type)
		}
	}
	return relation.NewSchema(as...)
}

func sameSchema(a, b []attrMeta) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Injected I/O helpers. Every data write and every fsync the store issues
// goes through these, so the chaos suite can count a clean ingest's I/O
// operations (Injector.Hits) and then kill a replay at each one.

// writeAll writes b to f through the durable.write fault site. A ShortWrite
// rule persists a strict prefix before the error surfaces — the torn-write
// crash signature.
func (s *Store) writeAll(ctx context.Context, f *os.File, b []byte) error {
	keep, err := faultinject.InjectWrite(ctx, faultinject.SiteDurableWrite, len(b))
	if err != nil {
		if keep > 0 {
			f.Write(b[:keep]) // crash mid-record: the prefix reached disk
		}
		return err
	}
	if _, err := f.Write(b); err != nil {
		return err
	}
	s.pageWrites.Add(1)
	s.bytesWritten.Add(uint64(len(b)))
	return nil
}

// fsyncFile syncs f through the durable.fsync fault site.
func (s *Store) fsyncFile(ctx context.Context, f *os.File) error {
	if err := faultinject.Inject(ctx, faultinject.SiteDurableFsync); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	s.fsyncs.Add(1)
	return nil
}

// fsyncDir syncs the directory entry metadata — the half of the rename
// protocol that makes a rename durable, not just atomic.
func (s *Store) fsyncDir(ctx context.Context, dir string) error {
	if err := faultinject.Inject(ctx, faultinject.SiteDurableFsync); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return err
	}
	s.fsyncs.Add(1)
	return nil
}
