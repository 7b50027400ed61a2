package verify

import (
	"fmt"
	"sort"
	"strings"
)

// Failure is one violated check. Engine is empty for checks that are not
// attributed to a single engine (ground-truth validation, analytic
// oracles on the instrumented GCA run).
type Failure struct {
	Case   string `json:"case"`
	Engine string `json:"engine,omitempty"`
	Check  string `json:"check"`
	Detail string `json:"detail"`
}

// EngineSummary aggregates one runner's results over the corpus. Path is
// "direct" for in-process facade calls, "service" for runs submitted
// through the serving layer (internal/service), and "service-faulty" for
// the fault-injected serving path. Errors counts engine errors tolerated
// on the faulty path — faults may produce errors, never wrong answers —
// and is always zero on the clean paths, where an error is a failure.
// CleanDeletes, on the "stream" path only, counts applied deletion
// batches the replica answered with Dirty=false: every edge it retracted
// was outside the spanning forest, so no recompute followed.
type EngineSummary struct {
	Engine       string `json:"engine"`
	Path         string `json:"path"`
	Cases        int    `json:"cases"`
	Checks       int    `json:"checks"`
	Failures     int    `json:"failures"`
	Errors       int    `json:"errors,omitempty"`
	CleanDeletes int    `json:"clean_deletes,omitempty"`
}

// Report is the machine-readable result of a harness run — the JSON body
// cmd/gca-verify prints.
type Report struct {
	N        int             `json:"n"`
	Seed     int64           `json:"seed"`
	Families []string        `json:"families"`
	Cases    int             `json:"cases"`
	Engines  []EngineSummary `json:"engines"`
	Checks   int             `json:"checks"`
	Failures []Failure       `json:"failures"`
	// FaultSpec is the canonical form of the fault schedule injected into
	// the service-faulty path; empty when that path did not run.
	FaultSpec string `json:"fault_spec,omitempty"`
}

// OK reports whether every check passed.
func (r *Report) OK() bool { return len(r.Failures) == 0 }

// Format renders the report as a human-readable table: one line per
// engine/path pair, then any failures.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "conformance corpus: n=%d seed=%d — %d cases over %d families, %d checks\n",
		r.N, r.Seed, r.Cases, len(r.Families), r.Checks)
	if r.FaultSpec != "" {
		fmt.Fprintf(&b, "fault schedule (service-faulty path): %s\n", r.FaultSpec)
	}
	fmt.Fprintf(&b, "%-12s %-14s %8s %8s %9s %7s\n", "engine", "path", "cases", "checks", "failures", "errors")
	engines := append([]EngineSummary(nil), r.Engines...)
	sort.SliceStable(engines, func(i, j int) bool {
		if engines[i].Path != engines[j].Path {
			return engines[i].Path < engines[j].Path
		}
		return false // keep declaration order within a path
	})
	for _, e := range engines {
		fmt.Fprintf(&b, "%-12s %-14s %8d %8d %9d %7d\n", e.Engine, e.Path, e.Cases, e.Checks, e.Failures, e.Errors)
	}
	if len(r.Failures) == 0 {
		b.WriteString("PASS: all engines agree on every case and every oracle holds\n")
		return b.String()
	}
	fmt.Fprintf(&b, "FAIL: %d check(s) violated\n", len(r.Failures))
	for _, f := range r.Failures {
		who := f.Check
		if f.Engine != "" {
			who = f.Engine + ": " + f.Check
		}
		fmt.Fprintf(&b, "  %s: %s: %s\n", f.Case, who, f.Detail)
	}
	return b.String()
}
