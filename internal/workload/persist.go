package workload

import (
	"encoding/gob"
	"fmt"
	"io"
	"strings"
)

// statsWire is the gob-serializable mirror of Stats. The paper's system
// persists the count tables in database tables so query-time categorization
// never touches the raw workload; we persist them as a single gob stream.
type statsWire struct {
	N          int
	AttrUsage  map[string]int
	Occ        map[string]map[string]int
	Splits     map[string]*splitWire
	Ranges     map[string]*rangeWire
	AttrByFreq []string
}

type splitWire struct {
	Interval   float64
	Start, End map[float64]int
}

type rangeWire struct {
	Los, His []float64
}

// Save writes the preprocessed count tables to w. Range indexes are written
// with their delta merged in, so the format does not depend on when the
// last merge happened.
func (s *Stats) Save(w io.Writer) error {
	wire := statsWire{
		N:          s.n,
		AttrUsage:  make(map[string]int, len(s.attrs)),
		Occ:        make(map[string]map[string]int),
		Splits:     make(map[string]*splitWire),
		Ranges:     make(map[string]*rangeWire),
		AttrByFreq: s.AttrsByUsage(),
	}
	for k, t := range s.attrs {
		wire.AttrUsage[k] = t.usage
		if t.occ != nil {
			wire.Occ[k] = t.occ
		}
		if t.splits != nil {
			wire.Splits[k] = &splitWire{Interval: t.splits.Interval, Start: t.splits.start, End: t.splits.end}
		}
		if t.ranges != nil {
			los, his := t.ranges.merged()
			wire.Ranges[k] = &rangeWire{Los: los, His: his}
		}
	}
	if err := gob.NewEncoder(w).Encode(&wire); err != nil {
		return fmt.Errorf("workload: encoding stats: %w", err)
	}
	return nil
}

// LoadStats reads count tables previously written by Save.
func LoadStats(r io.Reader) (*Stats, error) {
	var wire statsWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("workload: decoding stats: %w", err)
	}
	s := newStats()
	s.n = wire.N
	caseOf := make(map[string]string, len(wire.AttrByFreq))
	for _, a := range wire.AttrByFreq {
		caseOf[strings.ToLower(a)] = a
	}
	table := func(k string) *attrStats {
		name := caseOf[k]
		if name == "" {
			name = k
		}
		return s.writable(k, name)
	}
	for k, n := range wire.AttrUsage {
		table(k).usage = n
	}
	for k, m := range wire.Occ {
		table(k).occ = m
	}
	for k, sw := range wire.Splits {
		st := &SplitTable{Interval: sw.Interval, start: sw.Start, end: sw.End}
		if st.start == nil {
			st.start = make(map[float64]int)
		}
		if st.end == nil {
			st.end = make(map[float64]int)
		}
		table(k).splits = st
	}
	for k, rw := range wire.Ranges {
		table(k).ranges = &rangeIndex{los: rw.Los, his: rw.His}
	}
	s.sortByFreq()
	return s, nil
}
