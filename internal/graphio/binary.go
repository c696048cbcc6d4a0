package graphio

import (
	"bufio"
	"encoding/binary"
	"io"

	"repro/internal/graph"
)

// binaryMagic identifies the compact binary format ("planar graph
// binary, version 1").
const binaryMagic = "PGB1"

// The binary layout after the 4-byte magic is:
//
//	uvarint n
//	uvarint m
//	m edge records over the canonical order (sorted, u < v):
//	    uvarint du          // u - prevU
//	    uvarint gap         // v - base - 1, base = u when du > 0
//	                        //               else prevV (first edge: 0)
//
// Within one u the v values are strictly increasing and always exceed
// u, so every gap is >= 0 and decoding can never produce a self-loop or
// duplicate edge — corrupt streams surface as bounds violations,
// truncation, or trailing-byte errors instead.

// readBinary decodes the compact format, validating bounds per edge and
// requiring exact stream length (no trailing bytes).
func readBinary(br *bufio.Reader, maxNodes int) (*graph.Graph, error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, parseErrf(Binary, 0, "short magic: %v", err)
	}
	if string(magic[:]) != binaryMagic {
		return nil, parseErrf(Binary, 0, "bad magic %q", magic[:])
	}
	n, err := readUvarint(br, "n")
	if err != nil {
		return nil, err
	}
	m, err := readUvarint(br, "m")
	if err != nil {
		return nil, err
	}
	in := newIngest(Binary, maxNodes)
	if n > uint64(in.maxNodes) {
		return nil, in.overCap(0, n)
	}
	if maxM := n * (n - 1) / 2; m > maxM {
		return nil, parseErrf(Binary, 0, "m=%d exceeds the simple-graph maximum %d for n=%d", m, maxM, n)
	}
	if err := in.declare(0, int(n), int(m)); err != nil {
		return nil, err
	}
	prevU, prevV := uint64(0), uint64(0)
	for i := uint64(0); i < m; i++ {
		du, err := readUvarint(br, "edge delta")
		if err != nil {
			return nil, err
		}
		gap, err := readUvarint(br, "edge gap")
		if err != nil {
			return nil, err
		}
		u := prevU + du
		base := prevV
		if du > 0 || i == 0 {
			base = u
		}
		v := base + gap + 1
		// u < prevU or v <= base means the uint64 sum wrapped (huge
		// varint): reject rather than decode an out-of-order stream.
		if u < prevU || v <= base || v >= n {
			return nil, parseErrf(Binary, 0, "edge %d out of range", i)
		}
		if aerr := in.add(0, int(u), int(v)); aerr != nil {
			return nil, aerr
		}
		prevU, prevV = u, v
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, parseErrf(Binary, 0, "trailing bytes after %d edges", m)
	}
	return in.build()
}

// readUvarint decodes one varint, rejecting non-minimal encodings (a
// zero final byte after a continuation) and 64-bit overflow, so every
// value has exactly one accepted byte sequence — the property that
// keeps the format canonical (FuzzReadBinary checks accepted inputs
// re-encode byte-identically).
func readUvarint(br *bufio.Reader, what string) (uint64, error) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		b, err := br.ReadByte()
		if err != nil {
			return 0, parseErrf(Binary, 0, "truncated %s: %v", what, err)
		}
		if b < 0x80 {
			if i == 9 && b > 1 {
				return 0, parseErrf(Binary, 0, "%s: varint overflows 64 bits", what)
			}
			if b == 0 && i > 0 {
				return 0, parseErrf(Binary, 0, "%s: non-minimal varint", what)
			}
			return x | uint64(b)<<s, nil
		}
		if i == 9 {
			return 0, parseErrf(Binary, 0, "%s: varint overflows 64 bits", what)
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
}

// writeBinary encodes g; the canonical sorted edge order makes the
// output a pure function of the graph (and the basis of Hash).
func writeBinary(w io.Writer, g *graph.Graph) error {
	var buf [2 * binary.MaxVarintLen64]byte
	k := copy(buf[:], binaryMagic)
	k += binary.PutUvarint(buf[k:], uint64(g.N()))
	if _, err := w.Write(buf[:k]); err != nil {
		return err
	}
	k = binary.PutUvarint(buf[:], uint64(g.M()))
	if _, err := w.Write(buf[:k]); err != nil {
		return err
	}
	prevU, prevV := 0, 0
	first := true
	return eachEdge(g, func(u, v int) error {
		base := prevV
		if u != prevU || first {
			base = u
		}
		k := binary.PutUvarint(buf[:], uint64(u-prevU))
		k += binary.PutUvarint(buf[k:], uint64(v-base-1))
		prevU, prevV, first = u, v, false
		_, err := w.Write(buf[:k])
		return err
	})
}
