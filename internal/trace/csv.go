package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV serializes a Set as CSV: a header row of trace names (prefixed
// with a "# class" comment row), then one row per tick with one column per
// trace. All member traces must have equal length.
func WriteCSV(w io.Writer, s *Set) error {
	if len(s.Traces) == 0 {
		return fmt.Errorf("set %s: nothing to write", s.Name)
	}
	n := s.Traces[0].Len()
	for _, t := range s.Traces {
		if t.Len() != n {
			return fmt.Errorf("set %s: trace %s length %d != %d", s.Name, t.Name, t.Len(), n)
		}
	}
	cw := csv.NewWriter(w)
	header := make([]string, len(s.Traces))
	classes := make([]string, len(s.Traces))
	for i, t := range s.Traces {
		header[i] = t.Name
		classes[i] = t.Class
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	if err := cw.Write(classes); err != nil {
		return err
	}
	row := make([]string, len(s.Traces))
	for k := 0; k < n; k++ {
		for i, t := range s.Traces {
			row[i] = strconv.FormatFloat(t.At(k), 'g', 8, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses the format written by WriteCSV.
func ReadCSV(r io.Reader, name string) (*Set, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("read header: %w", err)
	}
	classes, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("read class row: %w", err)
	}
	if len(classes) != len(header) {
		return nil, fmt.Errorf("class row has %d columns, header %d", len(classes), len(header))
	}
	set := &Set{Name: name}
	for i, h := range header {
		set.Traces = append(set.Traces, &Trace{Name: h, Class: classes[i]})
	}
	for line := 3; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if len(row) != len(header) {
			return nil, fmt.Errorf("line %d: %d columns, want %d", line, len(row), len(header))
		}
		for i, cell := range row {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d col %d: %w", line, i+1, err)
			}
			set.Traces[i].samples = append(set.Traces[i].samples, v)
		}
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	return set, nil
}
