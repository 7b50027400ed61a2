package stream

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"gcacc"
	"gcacc/internal/sparse"
)

// FuzzMutationTrace decodes arbitrary bytes into a valid mutation trace
// (the decoder is total — no rejection path hides bugs) and replays it
// against two incremental states, one with a recompute period and one
// without (replayTrace). The trace also round-trips through the text
// format.
func FuzzMutationTrace(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 0, 1, 2, 3, 4, 5})
	f.Add([]byte{63, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3})
	f.Add([]byte("interleaved append/delete/query soup"))
	f.Add(bytes.Repeat([]byte{2, 1, 3}, 40))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr := DecodeTrace(data)

		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr); err != nil {
			t.Fatalf("WriteTrace: %v", err)
		}
		tr2, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("decoded trace does not re-parse: %v", err)
		}
		if !reflect.DeepEqual(tr, tr2) {
			t.Fatalf("text round trip changed the trace")
		}

		// A RecomputePeriod-3 replica recomputes on schedule; the
		// period-0 replica recomputes only when a tree-edge deletion
		// requires it, so it alone would serve an answer built on stale
		// tree bits.
		for _, period := range []int{3, 0} {
			replayTrace(t, tr, period)
		}
	})
}

// replayTrace replays tr against one state, checking every query against
// a from-scratch union-find oracle and the tree-bit invariant (a clean
// graph marks n − components live edges), and every accepted batch
// against the epoch counter.
func replayTrace(t *testing.T, tr *Trace, period int) {
	t.Helper()
	ctx := context.Background()
	st, err := NewState(tr.N, Config{Engine: gcacc.EngineLiuTarjan, RecomputePeriod: period})
	if err != nil {
		t.Fatalf("NewState(%d): %v", tr.N, err)
	}
	live := map[sparse.Edge]struct{}{}
	epoch := uint64(0)
	for i, op := range tr.Ops {
		switch op.Kind {
		case OpQuery:
			snap, err := st.Components(ctx)
			if err != nil {
				t.Fatalf("period %d, op %d: query: %v", period, i, err)
			}
			if snap.Epoch != epoch {
				t.Fatalf("period %d, op %d: snapshot epoch %d, want %d", period, i, snap.Epoch, epoch)
			}
			want := oracleLabels(tr.N, live)
			if !reflect.DeepEqual(snap.Labels, want) {
				t.Fatalf("period %d, op %d: labels diverge from oracle\n got %v\nwant %v", period, i, snap.Labels, want)
			}
			if snap.Components != sparse.ComponentCount(want) {
				t.Fatalf("period %d, op %d: components = %d, oracle %d", period, i, snap.Components, sparse.ComponentCount(want))
			}
			if got := treeCount(st); got != tr.N-snap.Components {
				t.Fatalf("period %d, op %d: %d tree edges, want n − components = %d", period, i, got, tr.N-snap.Components)
			}
		case OpAppend, OpDelete:
			var m Mutation
			if op.Kind == OpAppend {
				m, err = st.Append(ctx, op.Edges, int64(epoch))
			} else {
				m, err = st.Delete(ctx, op.Edges, int64(epoch))
			}
			if err != nil {
				t.Fatalf("period %d, op %d: %s: %v", period, i, op.Kind, err)
			}
			epoch++
			if m.Epoch != epoch {
				t.Fatalf("period %d, op %d: mutation epoch %d, want %d", period, i, m.Epoch, epoch)
			}
			for _, e := range op.Edges {
				if op.Kind == OpAppend {
					live[e] = struct{}{}
				} else {
					delete(live, e)
				}
			}
		}
	}
}

// DecodeTrace maps an arbitrary byte string onto a valid trace — the
// total decoder behind FuzzMutationTrace, so every fuzzer input replays
// without a rejection path hiding bugs. The first byte picks the vertex
// count (2..65); each following byte either flushes a query or starts an
// edge op consuming two endpoint bytes, with self-loops bent to the next
// vertex. A trailing query is always appended so every trace checks its
// final state.
func DecodeTrace(data []byte) *Trace {
	t := &Trace{N: 2}
	if len(data) == 0 {
		t.Ops = []Op{{Kind: OpQuery}}
		return t
	}
	t.N = 2 + int(data[0])%64
	var batch []sparse.Edge
	kind := OpAppend
	flush := func() {
		if len(batch) > 0 {
			t.Ops = append(t.Ops, Op{Kind: kind, Edges: batch})
			batch = nil
		}
	}
	for i := 1; i < len(data); {
		c := data[i]
		i++
		var want OpKind
		switch c % 4 {
		case 0, 1:
			want = OpAppend // appends twice as likely: streams are append-heavy
		case 2:
			want = OpDelete
		default:
			flush()
			t.Ops = append(t.Ops, Op{Kind: OpQuery})
			continue
		}
		if i+1 >= len(data) {
			break
		}
		u := int(data[i]) % t.N
		v := int(data[i+1]) % t.N
		i += 2
		if u == v {
			v = (u + 1) % t.N
		}
		if u > v {
			u, v = v, u
		}
		if want != kind {
			flush()
			kind = want
		}
		batch = append(batch, sparse.Edge{U: int32(u), V: int32(v)})
	}
	flush()
	t.Ops = append(t.Ops, Op{Kind: OpQuery})
	return t
}
