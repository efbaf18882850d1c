package merkle

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Proof verification errors. ErrRootMismatch is the signal that a participant
// is cheating (Theorem 2 of the paper); the malformed-proof errors indicate a
// protocol violation rather than a detected lie.
var (
	// ErrRootMismatch is returned when the root reconstructed from the proof
	// differs from the committed root.
	ErrRootMismatch = errors.New("merkle: reconstructed root does not match commitment")
	// ErrMalformedProof is returned when a proof is structurally invalid.
	ErrMalformedProof = errors.New("merkle: malformed proof")
)

// Proof is the participant's evidence for a single sample x: the claimed
// f(x) value plus the sibling Φ values λ1..λH along the path from the leaf to
// the root. The supervisor reconstructs Φ(R') = Λ(f(x), λ1..λH) and compares
// it against the commitment (Step 4, Section 3.1).
type Proof struct {
	// Index is the zero-based leaf index of the sample within the domain.
	Index int
	// N is the number of real leaves in the tree the proof was drawn from.
	N int
	// Value is the claimed leaf value, Φ(L) = f(x).
	Value []byte
	// Siblings holds the Φ values of the sibling of each node on the
	// leaf-to-root path, ordered bottom-up.
	Siblings [][]byte
}

// PathVerifier reconstructs roots from audit paths with one reusable hash
// state and one scratch digest, so checking m proofs of a commitment costs
// m·log n hashes and no per-proof setup. It is not safe for concurrent use.
type PathVerifier struct {
	nh      *nodeHasher
	scratch []byte // one digest of capacity; nil for variable-size hashers
}

// NewPathVerifier prepares a verifier for proofs drawn from trees built with
// the same options.
func NewPathVerifier(opts ...Option) *PathVerifier {
	nh := newHashers(buildOptions(opts)).node()
	v := &PathVerifier{nh: nh}
	if nh.hs.fixedLen > 0 {
		v.scratch = make([]byte, 0, nh.hs.fixedLen)
	}
	return v
}

// root computes Λ(Φ(L), λ1..λH) for a validated proof. The result aliases
// the verifier's scratch (or the proof's value for a one-leaf tree) and is
// valid until the next call. combineInto absorbs its inputs before writing,
// so cur may alias the scratch it is rewritten into; with a variable-size
// hasher each level allocates a fresh digest instead.
func (v *PathVerifier) root(p *Proof) ([]byte, error) {
	if err := validateProof(p); err != nil {
		return nil, err
	}
	cur := p.Value
	pos := nextPow2(p.N) + p.Index
	for _, sib := range p.Siblings {
		if pos&1 == 0 {
			cur = v.nh.combineInto(v.scratch, cur, sib)
		} else {
			cur = v.nh.combineInto(v.scratch, sib, cur)
		}
		pos /= 2
	}
	return cur, nil
}

// Verify checks the proof against the committed root. It returns nil when
// the proof is consistent with the commitment, ErrRootMismatch when the
// participant's claimed value was not the one committed (a caught cheat),
// and ErrMalformedProof for structurally invalid proofs.
func (v *PathVerifier) Verify(root []byte, p *Proof) error {
	got, err := v.root(p)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, root) {
		return ErrRootMismatch
	}
	return nil
}

// RootFromProof reconstructs the Merkle root implied by the proof. This is
// the Λ(Φ(L), λ1..λH) computation of Section 3.2.
func RootFromProof(p *Proof, opts ...Option) ([]byte, error) {
	got, err := NewPathVerifier(opts...).root(p)
	if err != nil {
		return nil, err
	}
	return cloneBytes(got), nil
}

// Verify checks one proof against the committed root; see
// PathVerifier.Verify, which amortizes the hash state across many proofs.
func Verify(root []byte, p *Proof, opts ...Option) error {
	return NewPathVerifier(opts...).Verify(root, p)
}

func validateProof(p *Proof) error {
	if p == nil {
		return fmt.Errorf("%w: nil proof", ErrMalformedProof)
	}
	if p.N <= 0 || p.N > maxLeaves {
		return fmt.Errorf("%w: leaf count %d not in [1, 2^62]", ErrMalformedProof, p.N)
	}
	if p.Index < 0 || p.Index >= p.N {
		return fmt.Errorf("%w: index %d not in [0, %d)", ErrMalformedProof, p.Index, p.N)
	}
	if p.Value == nil {
		return fmt.Errorf("%w: nil leaf value", ErrMalformedProof)
	}
	if want := log2(nextPow2(p.N)); len(p.Siblings) != want {
		return fmt.Errorf("%w: %d siblings, want %d for n=%d",
			ErrMalformedProof, len(p.Siblings), want, p.N)
	}
	for i, s := range p.Siblings {
		if s == nil {
			return fmt.Errorf("%w: nil sibling at level %d", ErrMalformedProof, i)
		}
	}
	return nil
}

// MarshalBinary encodes the proof with a compact length-prefixed layout:
// uvarint(index) || uvarint(n) || uvarint(len(value)) || value ||
// uvarint(len(siblings)) || (uvarint(len(s)) || s)*.
func (p *Proof) MarshalBinary() ([]byte, error) {
	if p == nil {
		return nil, validateProof(p)
	}
	return p.AppendBinary(make([]byte, 0, p.EncodedSize()))
}

// AppendBinary appends the MarshalBinary encoding of the proof to dst.
func (p *Proof) AppendBinary(dst []byte) ([]byte, error) {
	if err := validateProof(p); err != nil {
		return nil, err
	}
	dst = binary.AppendUvarint(dst, uint64(p.Index))
	dst = binary.AppendUvarint(dst, uint64(p.N))
	dst = binary.AppendUvarint(dst, uint64(len(p.Value)))
	dst = append(dst, p.Value...)
	dst = binary.AppendUvarint(dst, uint64(len(p.Siblings)))
	for _, s := range p.Siblings {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst, nil
}

// UnmarshalBinary decodes a proof produced by MarshalBinary. The proof owns
// its bytes: data is copied once and may be reused by the caller.
func (p *Proof) UnmarshalBinary(data []byte) error {
	var decoded Proof
	if _, err := decoded.DecodeInto(bytes.Clone(data), nil); err != nil {
		return err
	}
	*p = decoded
	return nil
}

// maxSiblings bounds a proof's path: a complete binary tree cannot be deeper
// on 64-bit indices.
const maxSiblings = 64

// DecodeInto decodes one MarshalBinary encoding, which must span all of data,
// into p without copying: p.Value and every sibling subslice data, so the
// caller must own data and leave it unmodified while p is in use. The
// sibling headers are appended to arena, which is returned (grown if it
// lacked capacity); passing the returned arena to the next call lets many
// proofs share one backing array. p is written only when data decodes to a
// valid proof.
func (p *Proof) DecodeInto(data []byte, arena [][]byte) ([][]byte, error) {
	d := proofDecoder{data: data}
	index := d.uvarint("index")
	n := d.uvarint("leaf count")
	value := d.field("value")
	count := d.uvarint("sibling count")
	if d.err != nil {
		return arena, d.err
	}
	if count > maxSiblings {
		return arena, fmt.Errorf("%w: sibling count %d exceeds %d", ErrMalformedProof, count, maxSiblings)
	}
	arena = slices.Grow(arena, int(count))
	start := len(arena)
	for i := uint64(0); i < count; i++ {
		arena = append(arena, d.field("sibling"))
	}
	if d.err != nil {
		return arena[:start], d.err
	}
	if len(d.data) != 0 {
		return arena[:start], fmt.Errorf("%w: %d trailing bytes", ErrMalformedProof, len(d.data))
	}
	decoded := Proof{
		Index:    int(index),
		N:        int(n),
		Value:    value,
		Siblings: arena[start:len(arena):len(arena)],
	}
	if err := validateProof(&decoded); err != nil {
		return arena[:start], err
	}
	*p = decoded
	return arena, nil
}

// proofDecoder walks an encoded proof; the first failure sticks in err and
// turns later reads into no-ops.
type proofDecoder struct {
	data []byte
	err  error
}

func (d *proofDecoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data)
	if n <= 0 {
		d.err = fmt.Errorf("%w: %s: truncated or overlong uvarint", ErrMalformedProof, what)
		return 0
	}
	d.data = d.data[n:]
	return v
}

// field reads a length-prefixed byte string as a capacity-capped subslice,
// so appending to it can never overwrite the bytes that follow.
func (d *proofDecoder) field(what string) []byte {
	n := d.uvarint(what)
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.data)) {
		d.err = fmt.Errorf("%w: %s: declared length %d exceeds remaining %d", ErrMalformedProof, what, n, len(d.data))
		return nil
	}
	out := d.data[:n:n]
	d.data = d.data[n:]
	return out
}

// EncodedSize reports the exact number of bytes MarshalBinary will produce.
// The grid layer uses it for communication accounting without re-encoding.
func (p *Proof) EncodedSize() int {
	size := uvarintLen(uint64(p.Index)) + uvarintLen(uint64(p.N))
	size += uvarintLen(uint64(len(p.Value))) + len(p.Value)
	size += uvarintLen(uint64(len(p.Siblings)))
	for _, s := range p.Siblings {
		size += uvarintLen(uint64(len(s))) + len(s)
	}
	return size
}

func uvarintLen(v uint64) int {
	var tmp [binary.MaxVarintLen64]byte
	return binary.PutUvarint(tmp[:], v)
}
