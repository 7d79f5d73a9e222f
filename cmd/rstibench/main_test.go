package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rsti/internal/core"
)

var update = flag.Bool("update", false, "rewrite the golden file with current output")

// TestOutputGolden pins every modelled number the paper's tables and
// figures report: the default output must match its golden byte for
// byte. The optimizer changes Figure 9's numbers, so RSTI_OPT=1 has a
// golden of its own. Only a change meant to move modelled numbers may
// regenerate one, with `go test ./cmd/rstibench -run TestOutputGolden
// -update` under each RSTI_OPT setting.
func TestOutputGolden(t *testing.T) {
	path := filepath.Join("testdata", "rstibench.golden")
	if core.DefaultOptimize() {
		path = filepath.Join("testdata", "rstibench_opt.golden")
	}
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() == string(want) {
		return
	}
	got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) && i < len(wantLines); i++ {
		if got[i] != wantLines[i] {
			t.Fatalf("output differs from %s at line %d:\n got: %q\nwant: %q", path, i+1, got[i], wantLines[i])
		}
	}
	t.Fatalf("output has %d lines, %s has %d", len(got), path, len(wantLines))
}
