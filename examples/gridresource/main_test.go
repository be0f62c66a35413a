package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestMainOutput runs the example and holds what it prints to
// testdata/output.txt: the simulation is seeded, so its output is fixed to
// the byte. After a change meant to move it, recapture with
// `go run ./examples/gridresource > examples/gridresource/testdata/output.txt`.
func TestMainOutput(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	main()
	os.Stdout = stdout
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from testdata/output.txt; got\n%s", got)
	}
}
