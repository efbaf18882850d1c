package core

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"uncheatgrid/internal/merkle"
)

// Commitment is the Step 1 message: the Merkle root Φ(R) over all n results
// plus the domain size the participant claims to have computed.
type Commitment struct {
	// Root is Φ(R).
	Root []byte
	// N is the number of leaves (the participant's |D|).
	N uint64
}

// Challenge is the Step 2 message: the supervisor's sample indices
// (zero-based positions within the participant's domain).
type Challenge struct {
	// Indices are drawn uniformly with replacement from [0, N).
	Indices []uint64
}

// Response is the Step 3 message: one audit-path proof per challenged
// sample, each carrying the claimed f(x) as its leaf value.
type Response struct {
	// Proofs are ordered to match the challenge indices.
	Proofs []*merkle.Proof
}

// MarshalBinary encodes the commitment as
// uvarint(len(root)) || root || uvarint(n).
func (c Commitment) MarshalBinary() ([]byte, error) {
	if len(c.Root) == 0 {
		return nil, fmt.Errorf("%w: empty commitment root", ErrProtocol)
	}
	buf := make([]byte, 0, c.EncodedSize())
	buf = binary.AppendUvarint(buf, uint64(len(c.Root)))
	buf = append(buf, c.Root...)
	return binary.AppendUvarint(buf, c.N), nil
}

// UnmarshalBinary decodes a commitment produced by MarshalBinary.
func (c *Commitment) UnmarshalBinary(data []byte) error {
	size, err := readUvarint(&data, "root length")
	if err != nil {
		return err
	}
	if size == 0 {
		return fmt.Errorf("%w: empty commitment root", ErrProtocol)
	}
	if size > uint64(len(data)) {
		return fmt.Errorf("%w: root declares %d bytes, %d remain", ErrProtocol, size, len(data))
	}
	root := bytes.Clone(data[:size])
	data = data[size:]
	n, err := readUvarint(&data, "commitment n")
	if err != nil {
		return err
	}
	if len(data) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrProtocol, len(data))
	}
	c.Root = root
	c.N = n
	return nil
}

// EncodedSize reports the exact MarshalBinary length.
func (c Commitment) EncodedSize() int {
	return uvarintLen(uint64(len(c.Root))) + len(c.Root) + uvarintLen(c.N)
}

// MarshalBinary encodes the challenge as uvarint(m) || uvarint(index)*.
func (ch Challenge) MarshalBinary() ([]byte, error) {
	if len(ch.Indices) == 0 {
		return nil, fmt.Errorf("%w: empty challenge", ErrProtocol)
	}
	buf := make([]byte, 0, ch.EncodedSize())
	buf = binary.AppendUvarint(buf, uint64(len(ch.Indices)))
	for _, idx := range ch.Indices {
		buf = binary.AppendUvarint(buf, idx)
	}
	return buf, nil
}

// UnmarshalBinary decodes a challenge produced by MarshalBinary.
func (ch *Challenge) UnmarshalBinary(data []byte) error {
	m, err := readUvarint(&data, "challenge count")
	if err != nil {
		return err
	}
	const maxSamples = 1 << 20 // far above any useful m; bounds allocation
	// Each index takes at least one byte, so the payload bounds m too.
	if m == 0 || m > maxSamples || m > uint64(len(data)) {
		return fmt.Errorf("%w: challenge count %d outside [1, %d] or beyond %d payload bytes",
			ErrProtocol, m, maxSamples, len(data))
	}
	indices := make([]uint64, m)
	for k := range indices {
		if indices[k], err = readUvarint(&data, "challenge index"); err != nil {
			return err
		}
	}
	if len(data) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrProtocol, len(data))
	}
	ch.Indices = indices
	return nil
}

// EncodedSize reports the exact MarshalBinary length.
func (ch Challenge) EncodedSize() int {
	size := uvarintLen(uint64(len(ch.Indices)))
	for _, idx := range ch.Indices {
		size += uvarintLen(idx)
	}
	return size
}

// MarshalBinary encodes the response as uvarint(count) followed by each
// proof length-prefixed, in one allocation of exactly EncodedSize bytes.
func (resp *Response) MarshalBinary() ([]byte, error) {
	if resp == nil || len(resp.Proofs) == 0 {
		return nil, fmt.Errorf("%w: empty response", ErrProtocol)
	}
	for k, proof := range resp.Proofs {
		if proof == nil {
			return nil, fmt.Errorf("%w: nil proof %d", ErrProtocol, k)
		}
	}
	buf := make([]byte, 0, resp.EncodedSize())
	buf = binary.AppendUvarint(buf, uint64(len(resp.Proofs)))
	for k, proof := range resp.Proofs {
		buf = binary.AppendUvarint(buf, uint64(proof.EncodedSize()))
		var err error
		if buf, err = proof.AppendBinary(buf); err != nil {
			return nil, fmt.Errorf("core: marshal proof %d: %w", k, err)
		}
	}
	return buf, nil
}

// UnmarshalBinary decodes a response produced by MarshalBinary. The
// response owns its bytes — transport payloads are pooled and recycled — so
// data is copied once into a slab, and every proof is decoded into one
// backing array whose values and siblings subslice that slab.
func (resp *Response) UnmarshalBinary(data []byte) error {
	count, err := readUvarint(&data, "response count")
	if err != nil {
		return err
	}
	const maxProofs = 1 << 20
	// Every proof takes at least its one-byte length prefix, which bounds
	// the allocations below by the payload size.
	if count == 0 || count > maxProofs || count > uint64(len(data)) {
		return fmt.Errorf("%w: response count %d outside [1, %d] or beyond %d payload bytes",
			ErrProtocol, count, maxProofs, len(data))
	}
	slab := bytes.Clone(data)
	proofs := make([]merkle.Proof, count)
	ptrs := make([]*merkle.Proof, count)
	var arena [][]byte
	for k := range proofs {
		size, err := readUvarint(&slab, "proof length")
		if err != nil {
			return err
		}
		if size > uint64(len(slab)) {
			return fmt.Errorf("%w: proof %d declares %d bytes, %d remain", ErrProtocol, k, size, len(slab))
		}
		if k == 1 {
			// Size one sibling array for the rest from the first proof's
			// depth, which every honest proof of a response shares. Each
			// sibling takes at least a byte, so the slab bounds it.
			arena = make([][]byte, 0, min((count-1)*uint64(len(proofs[0].Siblings)), uint64(len(slab))))
		}
		if arena, err = proofs[k].DecodeInto(slab[:size:size], arena); err != nil {
			return fmt.Errorf("%w: proof %d: %v", ErrProtocol, k, err)
		}
		ptrs[k] = &proofs[k]
		slab = slab[size:]
	}
	if len(slab) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrProtocol, len(slab))
	}
	resp.Proofs = ptrs
	return nil
}

// EncodedSize reports the exact MarshalBinary length. It is the quantity the
// communication-cost experiment measures: O(m log n) by Section 3.1.
func (resp *Response) EncodedSize() int {
	size := uvarintLen(uint64(len(resp.Proofs)))
	for _, proof := range resp.Proofs {
		ps := proof.EncodedSize()
		size += uvarintLen(uint64(ps)) + ps
	}
	return size
}

func uvarintLen(v uint64) int {
	var tmp [binary.MaxVarintLen64]byte
	return binary.PutUvarint(tmp[:], v)
}

// readUvarint consumes one uvarint from the front of *data.
func readUvarint(data *[]byte, what string) (uint64, error) {
	v, n := binary.Uvarint(*data)
	if n <= 0 {
		return 0, fmt.Errorf("%w: %s: truncated or overlong uvarint", ErrProtocol, what)
	}
	*data = (*data)[n:]
	return v, nil
}
