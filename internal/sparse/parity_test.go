package sparse

import (
	"strings"
	"testing"

	"gcacc/internal/graph"
)

// TestParserParity pins the dense (graph.ReadEdgeList) and sparse
// (ReadEdgeStream) edge-list parsers to identical accept/reject
// behaviour on every input both can represent. The two parsers grew
// independently and historically diverged on trailing junk, sign marks
// (the dense side accepted "0 1 junk" and "+0 +1") and white space (the
// sparse side rejected \v, \f and non-ASCII spaces); both now read
// through graph.EdgeLines. Accepted inputs must also parse to the same
// graph.
func TestParserParity(t *testing.T) {
	cases := []struct {
		name   string
		in     string
		accept bool
	}{
		{"basic", "3 2\n0 1\n1 2\n", true},
		{"emptyGraph", "0 0\n", true},
		{"noEdges", "5 0\n", true},
		{"comments", "# a triangle\n3 3\n0 1\n# middle\n1 2\n0 2\n", true},
		{"blankLines", "\n\n2 1\n\n0 1\n\n", true},
		{"tabs", "2\t1\n0\t1\n", true},
		{"interiorSpaces", "  2   1  \n  0   1  \n", true},
		{"leadingZeros", "02 01\n00 01\n", true},
		{"duplicateEdges", "2 2\n0 1\n0 1\n", true},
		{"duplicateReversed", "2 2\n0 1\n1 0\n", true},
		{"hugeCommentLine", "# " + strings.Repeat("x", 1<<21) + "\n2 1\n0 1\n", true},
		// Every Unicode white space separates fields, as strings.Fields
		// splits them.
		{"verticalTab", "2\v1\n0\v1\n", true},
		{"formFeed", "\f2 1\f\n0\f1\n", true},
		{"nextLine", "2\u00851\n0\u00851\n", true},
		{"noBreakSpace", "2\u00a01\n\u00a00 1\u00a0\n", true},
		{"emSpace", "2\u20031\n0\u20031\n", true},
		{"ideographicSpace", "2\u30001\n0\u30001\n", true},
		{"unicodeSpaceComment", "\u3000# note\n2 1\n0 1\n", true},

		{"empty", "", false},
		{"selfLoop", "2 1\n1 1\n", false},
		{"selfLoopOnly", "1 1\n0 0\n", false},
		{"duplicateSelfLoops", "1 2\n0 0\n0 0\n", false},
		{"headerTrailingJunk", "2 1 junk\n0 1\n", false},
		{"edgeTrailingJunk", "2 1\n0 1 junk\n", false},
		{"edgeGluedJunk", "2 1\n0 1junk\n", false},
		{"plusSigns", "2 1\n+0 +1\n", false},
		{"plusHeader", "+2 +1\n0 1\n", false},
		{"negativeHeader", "-1 0\n", false},
		{"negativeEdge", "2 1\n-1 0\n", false},
		{"outOfRange", "2 1\n0 5\n", false},
		{"countShort", "3 2\n0 1\n", false},
		{"countLong", "2 1\n0 1\n1 0\n1 0\n", false},
		{"letters", "2 1\nfoo bar\n", false},
		{"headerOneField", "2\n", false},
		{"edgeOneField", "2 1\n0\n", false},
		{"edgeThreeFields", "2 1\n0 1 2\n", false},
		{"unicodeSpaceThreeFields", "2 1\n0\u00a01\u00a02\n", false},
		{"notASpace", "2 1\n0\u200b1\n", false},
		{"invalidUTF8", "2 1\n0\xff1\n", false},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dg, denseErr := graph.ReadEdgeList(strings.NewReader(tc.in))
			sg, sparseErr := ReadEdgeStream(strings.NewReader(tc.in))

			if (denseErr == nil) != (sparseErr == nil) {
				t.Fatalf("parsers diverge: dense err = %v, sparse err = %v", denseErr, sparseErr)
			}
			if tc.accept && denseErr != nil {
				t.Fatalf("want accept, both rejected: dense %v, sparse %v", denseErr, sparseErr)
			}
			if !tc.accept && denseErr == nil {
				t.Fatal("want reject, both accepted")
			}
			if denseErr != nil {
				return
			}
			if !FromDense(dg).Equal(sg) {
				t.Fatalf("parsers accept but disagree: dense %d/%d edges vs sparse %d/%d",
					dg.N(), dg.M(), sg.N(), sg.M())
			}
		})
	}
}
