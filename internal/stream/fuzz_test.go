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
// against the incremental state, checking every query against a
// from-scratch union-find oracle and every accepted batch against the
// epoch counter. The trace also round-trips through the text format.
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

		ctx := context.Background()
		st, err := NewState(tr.N, Config{Engine: gcacc.EngineLiuTarjan, RecomputePeriod: 3})
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
					t.Fatalf("op %d: query: %v", i, err)
				}
				if snap.Epoch != epoch {
					t.Fatalf("op %d: snapshot epoch %d, want %d", i, snap.Epoch, epoch)
				}
				want := oracleLabels(tr.N, live)
				if !reflect.DeepEqual(snap.Labels, want) {
					t.Fatalf("op %d: labels diverge from oracle\n got %v\nwant %v", i, snap.Labels, want)
				}
				if snap.Components != sparse.ComponentCount(want) {
					t.Fatalf("op %d: components = %d, oracle %d", i, snap.Components, sparse.ComponentCount(want))
				}
			case OpAppend:
				m, err := st.Append(ctx, op.Edges, int64(epoch))
				if err != nil {
					t.Fatalf("op %d: append: %v", i, err)
				}
				epoch++
				if m.Epoch != epoch {
					t.Fatalf("op %d: mutation epoch %d, want %d", i, m.Epoch, epoch)
				}
				for _, e := range op.Edges {
					live[e] = struct{}{}
				}
			case OpDelete:
				m, err := st.Delete(ctx, op.Edges, int64(epoch))
				if err != nil {
					t.Fatalf("op %d: delete: %v", i, err)
				}
				epoch++
				if m.Epoch != epoch {
					t.Fatalf("op %d: mutation epoch %d, want %d", i, m.Epoch, epoch)
				}
				for _, e := range op.Edges {
					delete(live, e)
				}
			}
		}
	})
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
