package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"jxta/internal/experiments"
)

// hostTime are the summary members that depend on the machine and differ
// between two runs of the same seed; everything else replays bit for bit.
var hostTime = map[string]bool{
	"wall_ms": true, "events_per_sec": true, "speedup_wall": true,
	"heap_bytes_per_edge": true, "gomaxprocs": true,
}

func stripHostTime(v any) any {
	switch v := v.(type) {
	case map[string]any:
		for k, x := range v {
			if hostTime[k] {
				delete(v, k)
			} else {
				v[k] = stripHostTime(x)
			}
		}
	case []any:
		for i, x := range v {
			v[i] = stripHostTime(x)
		}
	}
	return v
}

// TestEveryExperimentQuick runs every entry of experiments.Table at -quick
// scale with seed 42 and holds its summary to testdata/<name>.json, which is
// `jxta-bench -exp <name> -quick -seed 42 -json out.json`'s
// experiments.<name> section with the host-time members removed. It then
// renders each report as text and as CSV; every CSV block must parse with
// one column count throughout.
//
// After a change that is meant to move an experiment's output, recapture
// with that command and
// `jq '.experiments.<name> | walk(if type=="object" then del(.wall_ms,.events_per_sec,.speedup_wall,.heap_bytes_per_edge,.gomaxprocs) else . end)'`.
//
// A testdata file whose experiment left the table fails the test: delete
// the pin with the experiment.
func TestEveryExperimentQuick(t *testing.T) {
	pins, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, pin := range pins {
		name := strings.TrimSuffix(filepath.Base(pin), ".json")
		if !slices.ContainsFunc(experiments.Table, func(e experiments.Experiment) bool { return e.Name == name }) {
			t.Errorf("%s pins no experiment of experiments.Table", pin)
		}
	}
	for _, e := range experiments.Table {
		t.Run(e.Name, func(t *testing.T) {
			rep, err := e.Run(experiments.Options{Seed: 42, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.Marshal(rep.Summary)
			if err != nil {
				t.Fatal(err)
			}
			var got, want any
			if err := json.Unmarshal(data, &got); err != nil {
				t.Fatal(err)
			}
			golden, err := os.ReadFile(filepath.Join("testdata", e.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(golden, &want); err != nil {
				t.Fatal(err)
			}
			if got, want := stripHostTime(got), stripHostTime(want); !reflect.DeepEqual(got, want) {
				out, _ := json.MarshalIndent(got, "", " ")
				t.Fatalf("summary differs from testdata/%s.json; got\n%s", e.Name, out)
			}

			if err := renderText(new(bytes.Buffer), e, rep); err != nil {
				t.Fatalf("text: %v", err)
			}
			var out bytes.Buffer
			if err := renderCSV(&out, e, rep); err != nil {
				t.Fatalf("csv: %v", err)
			}
			for _, block := range strings.Split(strings.TrimPrefix(out.String(), "# "), "\n# ") {
				name, body, _ := strings.Cut(block, "\n")
				records, err := csv.NewReader(strings.NewReader(body)).ReadAll()
				if err != nil {
					t.Errorf("CSV block %q: %v", name, err)
				} else if len(records) < 2 {
					t.Errorf("CSV block %q has no records", name)
				}
			}
		})
	}
}
