package merkle

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

func snapLeaves(n int) [][]byte {
	leaves := make([][]byte, n)
	for i := range leaves {
		// Variable lengths exercise the raw-leaf level-0 frontier entries.
		leaves[i] = bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 1+i%5)
	}
	return leaves
}

func serialRoot(t *testing.T, leaves [][]byte) []byte {
	t.Helper()
	b, err := NewStreamBuilder(len(leaves))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range leaves {
		if err := b.Add(l); err != nil {
			t.Fatal(err)
		}
	}
	root, err := b.Root()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestStreamSnapshotRestoreRoots snapshots a builder at every split point
// and restores it through the wire form; every root must be byte-identical
// to an uninterrupted build.
func TestStreamSnapshotRestoreRoots(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 13, 16, 33, 70} {
		leaves := snapLeaves(n)
		want := serialRoot(t, leaves)
		for split := 0; split <= n; split++ {
			b, err := NewStreamBuilder(n)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range leaves[:split] {
				if err := b.Add(l); err != nil {
					t.Fatal(err)
				}
			}
			snap, err := b.Snapshot()
			if err != nil {
				t.Fatalf("n=%d split=%d: snapshot: %v", n, split, err)
			}
			// Marshal/unmarshal on the way so the wire form is what
			// actually gets restored.
			enc, err := snap.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var decoded StreamSnapshot
			if err := decoded.UnmarshalBinary(enc); err != nil {
				t.Fatalf("n=%d split=%d: unmarshal: %v", n, split, err)
			}
			r, err := RestoreStreamBuilder(&decoded)
			if err != nil {
				t.Fatalf("n=%d split=%d: restore: %v", n, split, err)
			}
			for _, l := range leaves[split:] {
				if err := r.Add(l); err != nil {
					t.Fatal(err)
				}
			}
			got, err := r.Root()
			if err != nil {
				t.Fatalf("n=%d split=%d: root: %v", n, split, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d split=%d: restored root differs", n, split)
			}
			// The original builder must keep working after Snapshot.
			for _, l := range leaves[split:] {
				if err := b.Add(l); err != nil {
					t.Fatal(err)
				}
			}
			cont, err := b.Root()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cont, want) {
				t.Fatalf("n=%d split=%d: snapshot disturbed the builder", n, split)
			}
		}
	}
}

func TestStreamSnapshotAfterRoot(t *testing.T) {
	b, err := NewStreamBuilder(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Add([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add([]byte{2}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Root(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Snapshot(); !errors.Is(err, ErrFinalized) {
		t.Fatalf("snapshot after root: got %v, want ErrFinalized", err)
	}
}

func TestStreamSnapshotValidation(t *testing.T) {
	b, err := NewStreamBuilder(8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := b.Add([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*StreamSnapshot){
		"added beyond n":   func(s *StreamSnapshot) { s.Added = s.N + 1 },
		"missing frontier": func(s *StreamSnapshot) { s.Frontier = s.Frontier[:1] },
		"extra frontier": func(s *StreamSnapshot) {
			s.Frontier = append(s.Frontier, FrontierEntry{Level: 1, Digest: []byte{1}})
		},
		"wrong level": func(s *StreamSnapshot) { s.Frontier[0].Level = 1 },
		"nil digest":  func(s *StreamSnapshot) { s.Frontier[0].Digest = nil },
		// Past 2^62 leaves the padded capacity overflows; validation once
		// looped forever on such a count instead of rejecting it.
		"n beyond 2^62":      func(s *StreamSnapshot) { s.N = 1<<62 + 1 },
		"window beyond 2^62": func(s *StreamSnapshot) { s.Window = &WindowSnapshot{W: 1<<62 + 1} },
	}
	for name, corrupt := range cases {
		bad := *snap
		bad.Frontier = append([]FrontierEntry(nil), snap.Frontier...)
		corrupt(&bad)
		if _, err := RestoreStreamBuilder(&bad); !errors.Is(err, ErrBadStreamSnapshot) {
			t.Errorf("%s: got %v, want ErrBadStreamSnapshot", name, err)
		}
	}
}

func TestStreamSnapshotUnmarshalCorruption(t *testing.T) {
	b, err := NewStreamBuilder(16, WithWindowTracking(4, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 11; i++ {
		if err := b.Add([]byte{byte(i), 0xaa}); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(enc); cut++ {
		var s StreamSnapshot
		if err := s.UnmarshalBinary(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	var s StreamSnapshot
	if err := s.UnmarshalBinary(append(append([]byte(nil), enc...), 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestWindowRoot checks every aligned window range against a standalone
// tree built directly over the same leaves, including the padded tail.
func TestWindowRoot(t *testing.T) {
	const n, w = 23, 4
	leaves := snapLeaves(n)
	b, err := NewStreamBuilder(n, WithWindowTracking(w, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range leaves {
		if err := b.Add(l); err != nil {
			t.Fatal(err)
		}
	}
	for lo := 0; lo < n; lo += w {
		his := []int{}
		for hi := lo + w; hi < n; hi += w {
			his = append(his, hi)
		}
		his = append(his, n) // partial tail window
		for _, hi := range his {
			got, err := b.WindowRoot(lo, hi)
			if err != nil {
				t.Fatalf("WindowRoot(%d, %d): %v", lo, hi, err)
			}
			tree, err := Build(leaves[lo:hi])
			if err != nil {
				t.Fatal(err)
			}
			if want := tree.Root(); !bytes.Equal(got, want) {
				t.Fatalf("WindowRoot(%d, %d) differs from standalone tree", lo, hi)
			}
		}
	}
	// The full range must agree with the builder's own commitment.
	full, err := b.WindowRoot(0, n)
	if err != nil {
		t.Fatal(err)
	}
	if want := serialRoot(t, leaves); !bytes.Equal(full, want) {
		t.Fatal("WindowRoot(0, n) differs from Root()")
	}
}

func TestWindowRootEvictionAndErrors(t *testing.T) {
	const n, w, keep = 32, 4, 2
	b, err := NewStreamBuilder(n, WithWindowTracking(w, keep))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := b.Add([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.WindowRoot(0, 4); !errors.Is(err, ErrWindowUnavailable) {
		t.Fatalf("evicted window: got %v", err)
	}
	if _, err := b.WindowRoot(12, 20); err != nil {
		t.Fatalf("retained windows: %v", err)
	}
	if _, err := b.WindowRoot(13, 17); !errors.Is(err, ErrWindowUnavailable) {
		t.Fatalf("unaligned lo: got %v", err)
	}
	if _, err := b.WindowRoot(12, 24); !errors.Is(err, ErrWindowUnavailable) {
		t.Fatalf("hi beyond stream: got %v", err)
	}
	plain, err := NewStreamBuilder(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.WindowRoot(0, 4); !errors.Is(err, ErrNoWindowTracking) {
		t.Fatalf("untracked builder: got %v", err)
	}
	if _, err := NewStreamBuilder(8, WithWindowTracking(3, 0)); !errors.Is(err, ErrBadWindow) {
		t.Fatalf("non-power-of-two window: got %v", err)
	}
}

// TestWindowTrackingSurvivesSnapshot restores a window-tracked stream at an
// arbitrary split and checks window roots keep matching standalone trees.
func TestWindowTrackingSurvivesSnapshot(t *testing.T) {
	const n, w = 29, 8
	leaves := snapLeaves(n)
	for _, split := range []int{0, 3, 8, 11, 16, 21, 29} {
		b, err := NewStreamBuilder(n, WithWindowTracking(w, 0))
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range leaves[:split] {
			if err := b.Add(l); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := b.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		enc, err := snap.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var decoded StreamSnapshot
		if err := decoded.UnmarshalBinary(enc); err != nil {
			t.Fatal(err)
		}
		r, err := RestoreStreamBuilder(&decoded)
		if err != nil {
			t.Fatalf("split=%d: %v", split, err)
		}
		for _, l := range leaves[split:] {
			if err := r.Add(l); err != nil {
				t.Fatal(err)
			}
		}
		for lo := 0; lo < n; lo += w {
			hi := lo + w
			if hi > n {
				hi = n
			}
			got, err := r.WindowRoot(lo, hi)
			if err != nil {
				t.Fatalf("split=%d WindowRoot(%d, %d): %v", split, lo, hi, err)
			}
			tree, err := Build(leaves[lo:hi])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, tree.Root()) {
				t.Fatalf("split=%d: restored WindowRoot(%d, %d) differs", split, lo, hi)
			}
		}
	}
}

func BenchmarkStreamSnapshot(b *testing.B) {
	const n = 1 << 16
	sb, err := NewStreamBuilder(n)
	if err != nil {
		b.Fatal(err)
	}
	leaf := make([]byte, 32)
	for i := 0; i < n/2; i++ {
		if err := sb.Add(leaf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sb.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleStreamBuilder_Snapshot() {
	b, _ := NewStreamBuilder(4)
	_ = b.Add([]byte("a"))
	_ = b.Add([]byte("b"))
	snap, _ := b.Snapshot()
	enc, _ := snap.MarshalBinary()

	// ... process restarts; the snapshot bytes came back from disk ...

	var back StreamSnapshot
	_ = back.UnmarshalBinary(enc)
	r, _ := RestoreStreamBuilder(&back)
	_ = r.Add([]byte("c"))
	_ = r.Add([]byte("d"))
	root, _ := r.Root()

	full, _ := NewStreamBuilder(4)
	for _, l := range []string{"a", "b", "c", "d"} {
		_ = full.Add([]byte(l))
	}
	want, _ := full.Root()
	fmt.Println(bytes.Equal(root, want))
	// Output: true
}
