// Command gca-lint runs the repository's static-analysis suite
// (internal/lint) over every package of the module: the GCA/PRAM model
// invariants (double-buffer discipline, rule purity), determinism and
// context-plumbing requirements of the simulator packages, concurrency
// hygiene (atomic access discipline, pool Close pairing, lock ordering),
// the serving layer's mutex convention, discarded-error hygiene, and dead
// code: the unused analyzer reports declarations under internal/ and
// cmd/ that nothing outside their own package's tests consumes.
//
// With -gcasm it verifies GCA rule-language programs instead
// (internal/gcasm/check): CRCW write conflicts, unknown registers,
// unreachable rules, schedule defects and statically out-of-range
// pointers. Program files are given as arguments; with none, the
// embedded Hirschberg and list-ranking programs are verified under
// their field contracts.
//
// Usage:
//
//	gca-lint [-dir .] [-analyzers a,b] [-json] [-list]
//	gca-lint -gcasm [-n 8] [-cells N] [-json] [program.gca ...]
//
// Exit status, in both modes: 0 when clean, 1 when any diagnostic was
// reported, 2 when the input could not be loaded at all (no module,
// typecheck failure, unreadable or syntactically invalid program).
// Individual Go findings can be suppressed with a `//lint:ignore
// <analyzer> <reason>` comment on or directly above the flagged line;
// each directive suppresses at most one diagnostic, and the reason is
// mandatory — a directive without one is itself a finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"gcacc/internal/gcasm"
	"gcacc/internal/gcasm/check"
	"gcacc/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	dir := flag.String("dir", ".", "module root to lint (must contain go.mod)")
	analyzersFlag := flag.String("analyzers", "", "comma-separated analyzer names (default: all)")
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	list := flag.Bool("list", false, "list available analyzers and exit")
	gcasmMode := flag.Bool("gcasm", false, "verify gcasm rule programs (args; default: embedded programs)")
	nFlag := flag.Int("n", 8, "gcasm mode: problem size for the range and congestion checks")
	cellsFlag := flag.Int("cells", 0, "gcasm mode: field-cell contract for program files (0 = no upper bound)")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	if *gcasmMode {
		return runGcasm(flag.Args(), *nFlag, *cellsFlag, *jsonOut)
	}

	analyzers, err := lint.Select(*analyzersFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	loader, err := lint.NewLoader(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	diags, npkgs, err := lint.Check(loader, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(os.Stderr, "gca-lint: %d finding(s) in %d package(s)\n", len(diags), npkgs)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// programDiagnostic is one verifier finding tagged with the program it
// came from, for the JSON output.
type programDiagnostic struct {
	Program string `json:"program"`
	check.Diagnostic
}

// runGcasm verifies rule programs: the named files, or the embedded
// programs under their known field contracts when no files are given.
func runGcasm(files []string, n, cells int, jsonOut bool) int {
	type target struct {
		name  string
		src   string
		cells int
	}
	var targets []target
	if len(files) == 0 {
		targets = []target{
			{"embedded:hirschberg", gcasm.HirschbergSource, n * (n + 1)},
			{"embedded:listrank", gcasm.ListRankSource, n},
		}
	} else {
		for _, path := range files {
			b, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gca-lint:", err)
				return 2
			}
			targets = append(targets, target{path, string(b), cells})
		}
	}

	var all []programDiagnostic
	for _, t := range targets {
		ds, err := check.VerifySource(t.src, check.Options{N: n, Cells: t.cells})
		if err != nil {
			fmt.Fprintf(os.Stderr, "gca-lint: %s: %v\n", t.name, err)
			return 2
		}
		for _, d := range ds {
			all = append(all, programDiagnostic{Program: t.name, Diagnostic: d})
		}
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if all == nil {
			all = []programDiagnostic{}
		}
		if err := enc.Encode(all); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	} else {
		for _, d := range all {
			fmt.Printf("%s:%s\n", d.Program, d.Diagnostic)
		}
		if len(all) > 0 {
			fmt.Fprintf(os.Stderr, "gca-lint: %d finding(s) in %d program(s)\n", len(all), len(targets))
		}
	}
	if len(all) > 0 {
		return 1
	}
	return 0
}
