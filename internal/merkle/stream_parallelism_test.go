package merkle

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"uncheatgrid/internal/leakcheck"
)

// The stream builder has a single serial engine; WithParallelism is
// accepted so one option list can configure Build, NewPartial and
// NewStreamBuilder, but it must leave the stream builder's output and
// contract untouched. The tests below pin that against the materialized
// tree. Their "Sharded" names date from a removed sharded stream engine.

// variableHash reports a Size() that disagrees with its Sum length, forcing
// the merkle package onto the allocating fallback path for variable-size
// digests. The underlying function is still deterministic sha256.
type variableHash struct{ hash.Hash }

func newVariableHash() hash.Hash { return variableHash{Hash: sha256.New()} }

func (v variableHash) Size() int { return 16 }

// TestStreamBuilderIgnoresParallelism pins that WithParallelism starts no
// goroutine on a stream builder, fresh or restored: with both builders
// mid-stream, no goroutine is running, and both finish on the serial root.
func TestStreamBuilderIgnoresParallelism(t *testing.T) {
	const n, split = 1000, 300
	values := leafValues(n)
	want := mustBuild(t, values).Root()
	b, err := NewStreamBuilder(n, WithParallelism(4))
	if err != nil {
		t.Fatalf("NewStreamBuilder: %v", err)
	}
	for _, v := range values[:split] {
		if err := b.Add(v); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	snap, err := b.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	r, err := RestoreStreamBuilder(snap, WithParallelism(4))
	if err != nil {
		t.Fatalf("RestoreStreamBuilder: %v", err)
	}
	if err := leakcheck.Check(100 * time.Millisecond); err != nil {
		t.Fatalf("mid-stream builders own goroutines: %v", err)
	}
	for _, sb := range []*StreamBuilder{b, r} {
		for _, v := range values[split:] {
			if err := sb.Add(v); err != nil {
				t.Fatalf("Add: %v", err)
			}
		}
		got, err := sb.Root()
		if err != nil {
			t.Fatalf("Root: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("root %x != serial root %x", got, want)
		}
	}
}

// TestStreamBuilderShardedMatchesSerial sweeps leaf counts (powers of two,
// off-by-ones, tiny trees) against a grid of parallelism degrees: every
// combination must reproduce the tree root bit for bit.
func TestStreamBuilderShardedMatchesSerial(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 200, 257, 1024, 1031} {
		values := leafValues(n)
		want := mustBuild(t, values).Root()
		for _, p := range []int{1, 2, 3, 4, 7, 8, 16} {
			t.Run(fmt.Sprintf("n=%d/p=%d", n, p), func(t *testing.T) {
				b, err := NewStreamBuilder(n, WithParallelism(p))
				if err != nil {
					t.Fatalf("NewStreamBuilder: %v", err)
				}
				for _, v := range values {
					if err := b.Add(v); err != nil {
						t.Fatalf("Add: %v", err)
					}
				}
				got, err := b.Root()
				if err != nil {
					t.Fatalf("Root: %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("stream root %x != tree root %x", got, want)
				}
			})
		}
	}
}

// TestStreamBuilderShardedQuick is the randomized equivalence property over
// (n, p) pairs, with variable-length leaf values.
func TestStreamBuilderShardedQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(2004))
	f := func(nSeed uint16, pSeed uint8) bool {
		n := int(nSeed%2000) + 1
		p := int(pSeed%10) + 1
		values := make([][]byte, n)
		for i := range values {
			values[i] = make([]byte, rng.Intn(40)+1)
			rng.Read(values[i])
		}
		tree, err := Build(values)
		if err != nil {
			return false
		}
		b, err := NewStreamBuilder(n, WithParallelism(p))
		if err != nil {
			return false
		}
		for _, v := range values {
			if err := b.Add(v); err != nil {
				return false
			}
		}
		got, err := b.Root()
		if err != nil {
			return false
		}
		return bytes.Equal(got, tree.Root())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamBuilderShardedErrorSemantics pins that a builder given
// WithParallelism keeps the stream contract: nil leaves and overflow
// rejected up front, ErrIncomplete before all leaves arrive, idempotent
// Root after.
func TestStreamBuilderShardedErrorSemantics(t *testing.T) {
	b, err := NewStreamBuilder(8, WithParallelism(4))
	if err != nil {
		t.Fatalf("NewStreamBuilder: %v", err)
	}
	if err := b.Add(nil); !errors.Is(err, ErrNilLeaf) {
		t.Fatalf("Add(nil): err = %v, want ErrNilLeaf", err)
	}
	if _, err := b.Root(); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("early Root: err = %v, want ErrIncomplete", err)
	}
	values := leafValues(8)
	for _, v := range values {
		if err := b.Add(v); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if err := b.Add([]byte("extra")); !errors.Is(err, ErrTooManyLeaves) {
		t.Fatalf("extra Add: err = %v, want ErrTooManyLeaves", err)
	}
	first, err := b.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	second, err := b.Root()
	if err != nil {
		t.Fatalf("Root (second call): %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("Root is not idempotent")
	}
	if want := mustBuild(t, values).Root(); !bytes.Equal(first, want) {
		t.Fatalf("stream root %x != tree root %x", first, want)
	}
}

// TestStreamBuilderShardedVariableHasher drives a builder given
// WithParallelism over the allocating fallback engine (a hasher whose Sum
// length disagrees with Size()), which must still produce the tree root.
func TestStreamBuilderShardedVariableHasher(t *testing.T) {
	const n = 77
	values := leafValues(n)
	b, err := NewStreamBuilder(n, WithHasher(newVariableHash), WithParallelism(4))
	if err != nil {
		t.Fatalf("NewStreamBuilder: %v", err)
	}
	for _, v := range values {
		if err := b.Add(v); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	got, err := b.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	if want := mustBuild(t, values, WithHasher(newVariableHash)).Root(); !bytes.Equal(got, want) {
		t.Fatalf("variable-hasher stream root %x != tree root %x", got, want)
	}
}

// FuzzStreamBuilderSharded fuzzes the stream builder against the
// materialized tree: random leaf count, random per-leaf sizes carved from
// the fuzz input, random parallelism. Any divergence is a soundness bug in
// the binary-counter frontier.
func FuzzStreamBuilderSharded(f *testing.F) {
	f.Add(uint16(1), uint8(0), []byte{0x01})
	f.Add(uint16(5), uint8(3), []byte("hello fuzzer"))
	f.Add(uint16(64), uint8(4), bytes.Repeat([]byte{0xAB}, 64))
	f.Add(uint16(1031), uint8(9), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, nSeed uint16, pSeed uint8, data []byte) {
		n := int(nSeed%1500) + 1
		p := int(pSeed % 12)
		values := make([][]byte, n)
		for i := range values {
			// Carve variable-length leaves out of the fuzz data; empty
			// leaves are legal, nil is not.
			if len(data) == 0 {
				values[i] = []byte{}
				continue
			}
			take := int(data[0])%7 + 1
			if take > len(data) {
				take = len(data)
			}
			values[i] = data[:take]
			data = data[take:]
		}
		tree, err := Build(values)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		b, err := NewStreamBuilder(n, WithParallelism(p))
		if err != nil {
			t.Fatalf("NewStreamBuilder: %v", err)
		}
		for i, v := range values {
			if err := b.Add(v); err != nil {
				t.Fatalf("Add(%d): %v", i, err)
			}
		}
		got, err := b.Root()
		if err != nil {
			t.Fatalf("Root: %v", err)
		}
		if want := tree.Root(); !bytes.Equal(got, want) {
			t.Fatalf("n=%d p=%d: stream root %x != tree root %x", n, p, got, want)
		}
	})
}
