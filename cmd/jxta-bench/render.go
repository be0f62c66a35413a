package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"

	"jxta/internal/experiments"
)

// A report is rendered from its summary's JSON encoding, so text and CSV
// show exactly what -json writes, members in the order they are written:
// declaration order for structs, sorted keys for maps.

// member is one name/value pair of a JSON object.
type member struct {
	key string
	val any // object, []any, json.Number, string, bool or nil
}

type object []member

// decode reads one JSON value, keeping object members in order.
func decode(dec *json.Decoder) (any, error) {
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	switch tok {
	case json.Delim('{'):
		var obj object
		for dec.More() {
			key, err := dec.Token()
			if err != nil {
				return nil, err
			}
			val, err := decode(dec)
			if err != nil {
				return nil, err
			}
			obj = append(obj, member{key.(string), val})
		}
		_, err = dec.Token()
		return obj, err
	case json.Delim('['):
		var arr []any
		for dec.More() {
			val, err := decode(dec)
			if err != nil {
				return nil, err
			}
			arr = append(arr, val)
		}
		_, err = dec.Token()
		return arr, err
	}
	return tok, nil
}

func ordered(summary any) (any, error) {
	data, err := json.Marshal(summary)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	return decode(dec)
}

func scalar(v any) bool {
	switch v.(type) {
	case object, []any:
		return false
	}
	return true
}

// table is one block of a rendering, named by its path in the summary: a
// list of objects (one row each), or one object's scalar members (one row).
type table struct {
	name string
	list bool
	cols []string
	rows [][]any // nil where a row lacks a column
}

// tables flattens a summary value. An object's members that are objects or
// lists become tables of their own; a list's rows keep only their scalar
// members (what nests inside a row, such as scale's node_metrics, is in the
// JSON only).
func tables(name string, v any) []table {
	switch v := v.(type) {
	case object:
		one := table{name: name, rows: [][]any{nil}}
		var nested []table
		for _, m := range v {
			if scalar(m.val) {
				one.cols = append(one.cols, m.key)
				one.rows[0] = append(one.rows[0], m.val)
			} else {
				nested = append(nested, tables(name+"/"+m.key, m.val)...)
			}
		}
		if len(one.cols) == 0 {
			return nested
		}
		return append([]table{one}, nested...)
	case []any:
		t := table{name: name, list: true}
		// Columns are the union over rows: a row's new member goes after
		// the member that precedes it in that row.
		for _, el := range v {
			obj, _ := el.(object)
			at := -1
			for _, m := range obj {
				if !scalar(m.val) {
					continue
				}
				i := slices.Index(t.cols, m.key)
				if i < 0 {
					i = at + 1
					t.cols = slices.Insert(t.cols, i, m.key)
				}
				at = i
			}
		}
		for _, el := range v {
			obj, _ := el.(object)
			row := make([]any, len(t.cols))
			for _, m := range obj {
				if i := slices.Index(t.cols, m.key); i >= 0 && scalar(m.val) {
					row[i] = m.val
				}
			}
			t.rows = append(t.rows, row)
		}
		return []table{t}
	}
	return nil
}

// textCell writes integers as encoded and other numbers to four
// significant digits, or to whole units from 1,000 up.
func textCell(v any) string {
	switch v := v.(type) {
	case nil:
		return ""
	case json.Number:
		f, err := v.Float64()
		if err != nil || !strings.ContainsAny(string(v), ".eE") {
			return string(v)
		}
		if math.Abs(f) >= 1000 {
			return strconv.FormatFloat(f, 'f', 0, 64)
		}
		return strconv.FormatFloat(f, 'g', 4, 64)
	}
	return fmt.Sprint(v)
}

// renderText writes the report for reading: each list as an aligned table,
// each object as key = value lines, each paper expectation as
// claim · paper · measured, and each chart in ASCII.
func renderText(w io.Writer, e experiments.Experiment, rep experiments.Report) error {
	summary, err := ordered(rep.Summary)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "==== %s: %s ====\n", e.Name, e.Title)
	for _, t := range tables(e.Name, summary) {
		if t.name != e.Name {
			fmt.Fprintf(tw, "%s:\n", t.name)
		}
		if !t.list {
			for i, col := range t.cols {
				fmt.Fprintf(tw, "  %s\t= %s\n", col, textCell(t.rows[0][i]))
			}
			continue
		}
		fmt.Fprintf(tw, "  %s\n", strings.Join(t.cols, "\t"))
		for _, row := range t.rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = textCell(v)
			}
			fmt.Fprintf(tw, "  %s\n", strings.Join(cells, "\t"))
		}
	}
	if len(rep.Paper) > 0 {
		fmt.Fprintln(tw, "paper:")
	}
	obj, _ := summary.(object)
	for _, x := range rep.Paper {
		i := slices.IndexFunc(obj, func(m member) bool { return m.key == x.Key })
		if i < 0 {
			return fmt.Errorf("paper expectation %q: the summary has no member %q", x.Claim, x.Key)
		}
		fmt.Fprintf(tw, "  %s (%s)\t· paper %s\t· measured %s\n", x.Claim, x.Source, x.Paper, textCell(obj[i].val))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, c := range rep.Charts {
		if _, err := fmt.Fprintln(w, c.Render()); err != nil {
			return err
		}
	}
	return nil
}

// renderCSV writes the report as "# <name>" blocks: each table of the
// summary with a header row, then each chart in long format (series,x,y).
func renderCSV(w io.Writer, e experiments.Experiment, rep experiments.Report) error {
	summary, err := ordered(rep.Summary)
	if err != nil {
		return err
	}
	block := func(name string, records [][]string) error {
		if _, err := fmt.Fprintf(w, "# %s\n", name); err != nil {
			return err
		}
		return csv.NewWriter(w).WriteAll(records)
	}
	for _, t := range tables(e.Name, summary) {
		records := [][]string{t.cols}
		for _, row := range t.rows {
			rec := make([]string, len(row))
			for i, v := range row {
				if v != nil {
					rec[i] = fmt.Sprint(v)
				}
			}
			records = append(records, rec)
		}
		if err := block(t.name, records); err != nil {
			return err
		}
	}
	for _, c := range rep.Charts {
		if err := block(c.Title, c.CSV()); err != nil {
			return err
		}
	}
	return nil
}
