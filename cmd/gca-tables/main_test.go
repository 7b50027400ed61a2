package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// captureStdout runs emit with os.Stdout redirected to a file and
// returns what it wrote.
func captureStdout(t *testing.T, emit func() error) []byte {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = emit()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPaperArtefactsGolden pins the output of `gca-tables -table1 -n 16`,
// `-table2` and `-figure3` byte for byte. These are the runs that observe
// every sub-generation (congestion records, pointer capture), so an
// engine change that keeps labels but alters what an observer sees —
// per-step active cells, δ-groups, access patterns, field contents —
// fails here.
func TestPaperArtefactsGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		emit   func() error
	}{
		{"table1_n16.golden", func() error {
			g, err := makeGraph("gnp", 16, 0.5, 2007)
			if err != nil {
				return err
			}
			return printTable1(g)
		}},
		{"table2.golden", func() error { printTable2(16); return nil }},
		{"figure3.golden", printFigure3},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if got := captureStdout(t, tc.emit); !bytes.Equal(got, want) {
			t.Errorf("%s: output differs from the golden file:\n%s", tc.golden, got)
		}
	}
}
