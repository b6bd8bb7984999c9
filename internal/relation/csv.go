package relation

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadCSV loads a relation from CSV with a header row. When schema is nil,
// column types are inferred from the data: a column is Numeric iff every
// non-empty cell parses as a float64 (header names become attribute names).
// When schema is given, the header must contain exactly its attributes (in
// any order) and cells are converted per the declared types; a numeric cell
// that fails to parse is an error.
func ReadCSV(name string, r io.Reader, schema *Schema) (*Relation, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = false
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	if len(header) == 0 {
		return nil, fmt.Errorf("relation: empty CSV header")
	}
	for _, h := range header {
		if !validHeaderName(h) {
			return nil, fmt.Errorf("relation: invalid CSV column name %q", h)
		}
	}
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV rows: %w", err)
	}
	if schema == nil {
		schema, err = inferSchema(header, records)
		if err != nil {
			return nil, err
		}
	}
	// Map schema position -> CSV column.
	colOf := make([]int, schema.Len())
	for i := range colOf {
		colOf[i] = -1
	}
	for ci, h := range header {
		if pos, ok := schema.Lookup(h); ok {
			if colOf[pos] != -1 {
				return nil, fmt.Errorf("relation: duplicate CSV column %q", h)
			}
			colOf[pos] = ci
		}
	}
	for i, c := range colOf {
		if c == -1 {
			return nil, fmt.Errorf("relation: CSV is missing attribute %q", schema.Attr(i).Name)
		}
	}
	rel := New(name, schema)
	rel.Grow(len(records))
	tuple := make(Tuple, schema.Len()) // reused: Append copies the cells
	for ri, rec := range records {
		for i := range tuple {
			cell := rec[colOf[i]]
			if schema.Attr(i).Type == Categorical {
				tuple[i] = StringValue(cell)
				continue
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("relation: row %d, attribute %q: %q is not numeric",
					ri+1, schema.Attr(i).Name, cell)
			}
			tuple[i] = NumberValue(v)
		}
		rel.MustAppend(tuple)
	}
	return rel, nil
}

// validHeaderName rejects attribute names that cannot survive SQL rendering
// or CSV round-trips (control characters, including the CR/LF sequences
// encoding/csv normalizes inside quoted fields).
func validHeaderName(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		if r < 0x20 || r == 0x7f {
			return false
		}
	}
	return true
}

// inferSchema types each column Numeric iff every non-empty cell parses as a
// number; empty columns default to Categorical.
func inferSchema(header []string, records [][]string) (*Schema, error) {
	attrs := make([]Attribute, len(header))
	for ci, h := range header {
		numeric := false
		sawValue := false
		allNumeric := true
		for _, rec := range records {
			if ci >= len(rec) || rec[ci] == "" {
				continue
			}
			sawValue = true
			if _, err := strconv.ParseFloat(rec[ci], 64); err != nil {
				allNumeric = false
				break
			}
		}
		numeric = sawValue && allNumeric
		typ := Categorical
		if numeric {
			typ = Numeric
		}
		attrs[ci] = Attribute{Name: h, Type: typ}
	}
	s, err := NewSchema(attrs...)
	if err != nil {
		return nil, fmt.Errorf("relation: inferring CSV schema: %w", err)
	}
	return s, nil
}

// WriteCSV writes the relation as CSV with a header row, the inverse of
// ReadCSV. Unlike encoding/csv's writer it quotes a record that is a single
// empty field (which would otherwise serialize as a blank line that readers
// skip), so every relation round-trips.
func (r *Relation) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	header := make([]string, r.schema.Len())
	for i := range header {
		header[i] = r.schema.Attr(i).Name
	}
	if err := writeCSVRecord(bw, header); err != nil {
		return fmt.Errorf("relation: writing CSV header: %w", err)
	}
	record := make([]string, r.schema.Len())
	v := r.view()
	for i := 0; i < v.n; i++ {
		for j := range record {
			if cell := v.value(j, i); r.schema.Attr(j).Type == Categorical {
				record[j] = cell.Str
			} else {
				record[j] = strconv.FormatFloat(cell.Num, 'f', -1, 64)
			}
		}
		if err := writeCSVRecord(bw, record); err != nil {
			return fmt.Errorf("relation: writing CSV row %d: %w", i, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("relation: flushing CSV: %w", err)
	}
	return nil
}

// WriteCSVRecord emits one record in exactly the dialect WriteCSV produces,
// so streaming writers (internal/datagen.StreamCSV) can emit byte-identical
// output without materializing a relation.
func WriteCSVRecord(w *bufio.Writer, fields []string) error {
	return writeCSVRecord(w, fields)
}

// writeCSVRecord emits one RFC-4180 record.
func writeCSVRecord(w *bufio.Writer, fields []string) error {
	for i, f := range fields {
		if i > 0 {
			if err := w.WriteByte(','); err != nil {
				return err
			}
		}
		needQuote := strings.ContainsAny(f, ",\"\r\n") ||
			(len(fields) == 1 && f == "")
		if !needQuote {
			if _, err := w.WriteString(f); err != nil {
				return err
			}
			continue
		}
		if err := w.WriteByte('"'); err != nil {
			return err
		}
		if _, err := w.WriteString(strings.ReplaceAll(f, `"`, `""`)); err != nil {
			return err
		}
		if err := w.WriteByte('"'); err != nil {
			return err
		}
	}
	return w.WriteByte('\n')
}
