package stream

import (
	"context"
	"errors"
	"strings"
	"testing"

	"gcacc/internal/sparse"
)

func TestRegistryLifecycle(t *testing.T) {
	ctx := context.Background()
	r := NewRegistry(RegistryConfig{})
	if _, err := r.Create("g1", 8); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := r.Create("g1", 8); !errors.Is(err, ErrGraphExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if _, err := r.Get("nope"); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("get unknown: %v", err)
	}
	m, err := r.Append(ctx, "g1", []sparse.Edge{{U: 0, V: 1}}, NoEpoch)
	if err != nil || m.Epoch != 1 {
		t.Fatalf("append: %+v, %v", m, err)
	}
	snap, err := r.Components(ctx, "g1", true)
	if err != nil || snap.Components != 7 {
		t.Fatalf("components: %+v, %v", snap, err)
	}
	if _, err := r.Append(ctx, "nope", nil, NoEpoch); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("append to unknown: %v", err)
	}
	if err := r.Drop("g1"); err != nil {
		t.Fatalf("drop: %v", err)
	}
	if err := r.Drop("g1"); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("double drop: %v", err)
	}

	s := r.Stats()
	if s.Created != 1 || s.Dropped != 1 || s.Appends != 1 || s.Queries != 1 ||
		s.AppendedEdges != 1 || s.Graphs != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.QueryTime.Count != 1 || s.AppendTime.Count != 1 {
		t.Fatalf("latency histograms empty: %+v", s)
	}
}

func TestRegistryLimits(t *testing.T) {
	ctx := context.Background()
	r := NewRegistry(RegistryConfig{MaxGraphs: 1, MaxVertices: 16, MaxBatch: 2, MaxEdges: 3})
	if _, err := r.Create("a", 8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("b", 8); !errors.Is(err, ErrGraphLimit) {
		t.Fatalf("graph over limit: %v", err)
	}
	if err := r.Drop("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("b", 17); err == nil {
		t.Fatal("vertex count over limit accepted")
	}
	if _, err := r.Create("b", 8); err != nil {
		t.Fatal(err)
	}
	_, err := r.Append(ctx, "b", []sparse.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}, NoEpoch)
	if !errors.Is(err, ErrBatchLimit) {
		t.Fatalf("batch over limit: %v", err)
	}
	if _, err := r.Append(ctx, "b", []sparse.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, NoEpoch); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Append(ctx, "b", []sparse.Edge{{U: 2, V: 3}, {U: 3, V: 4}}, NoEpoch); !errors.Is(err, ErrEdgeLimit) {
		t.Fatalf("edges over limit: %v", err)
	}
	if r.Stats().Rejected == 0 {
		t.Fatal("rejections not counted")
	}
}

func TestRegistryNames(t *testing.T) {
	r := NewRegistry(RegistryConfig{})
	for _, name := range []string{"ok", "a.b-c_9", strings.Repeat("x", 64)} {
		if _, err := r.Create(name, 4); err != nil {
			t.Errorf("valid name %q rejected: %v", name, err)
		}
	}
	for _, name := range []string{"", "a b", "a/b", "ü", strings.Repeat("x", 65), "a\n"} {
		if _, err := r.Create(name, 4); !errors.Is(err, ErrBadName) {
			t.Errorf("invalid name %q: err = %v, want ErrBadName", name, err)
		}
	}
	got := r.Names()
	if len(got) != 3 || got[0] != "a.b-c_9" || got[1] != "ok" {
		t.Fatalf("names = %v", got)
	}
}

func TestRegistryEpochConflictCounted(t *testing.T) {
	ctx := context.Background()
	r := NewRegistry(RegistryConfig{})
	if _, err := r.Create("g", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Append(ctx, "g", []sparse.Edge{{U: 0, V: 1}}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Append(ctx, "g", []sparse.Edge{{U: 1, V: 2}}, 0); !errors.Is(err, ErrEpochConflict) {
		t.Fatal("stale epoch accepted")
	}
	s := r.Stats()
	if s.EpochConflicts != 1 {
		t.Fatalf("epoch conflicts = %d, want 1", s.EpochConflicts)
	}
}

func TestRegistryDeleteWrapper(t *testing.T) {
	ctx := context.Background()
	r := NewRegistry(RegistryConfig{})
	if _, err := r.Create("g", 6); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Append(ctx, "g", []sparse.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, NoEpoch); err != nil {
		t.Fatal(err)
	}
	m, err := r.Delete(ctx, "g", []sparse.Edge{{U: 0, V: 1}}, NoEpoch)
	if err != nil || m.Applied != 1 || !m.Dirty {
		t.Fatalf("delete: %+v, %v", m, err)
	}
	snap, err := r.Components(ctx, "g", true)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Recomputed {
		t.Fatal("query after delete did not recompute")
	}
	s := r.Stats()
	if s.Deletes != 1 || s.DeletedEdges != 1 || s.Recomputes != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.RecomputeTime.Count != 1 {
		t.Fatal("recompute latency not recorded")
	}
}
