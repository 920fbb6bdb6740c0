package store

import "hash/crc32"

// castagnoli is the CRC-32C polynomial table used for all shard
// checksums (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// colSum is the CRC-32C behind every published checksum: per column,
// per sub-block and per segment (DESIGN.md §12 has the three grains).
func colSum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// crcShift is the linear operator "n more bytes follow" on a CRC-32C:
// for blocks A and B with len(B) == n,
//
//	crc(A‖B) = shift(crc(A)) ^ crc(B)
//
// — zlib's crc32_combine with the length fixed, so its 32×32 GF(2)
// matrix is computed once per length instead of once per call. Entry j
// is the image of bit j. It lets a column's checksum be derived from
// its sub-block checksums instead of a second pass over the bytes.
type crcShift [32]uint32

// newCRCShift builds the operator for n-byte blocks: running the CRC
// register through n zero bytes is that operator, so each basis bit is
// pushed through crc32.Update (whose pre- and post-inversion are undone
// around the call).
func newCRCShift(n int) *crcShift {
	var zeros [4096]byte
	m := new(crcShift)
	for j := range m {
		v := ^(uint32(1) << j)
		for left := n; left > 0; {
			c := min(left, len(zeros))
			v = crc32.Update(v, castagnoli, zeros[:c])
			left -= c
		}
		m[j] = ^v
	}
	return m
}

// shift applies the operator to one checksum.
func (m *crcShift) shift(crc uint32) uint32 {
	var out uint32
	for j := 0; crc != 0; j, crc = j+1, crc>>1 {
		if crc&1 != 0 {
			out ^= m[j]
		}
	}
	return out
}

// colSums checksums a column in one pass: the CRC-32C of each of its H
// sub-blocks, and the whole-column CRC-32C combined from them.
func (s *Store) colSums(col []byte) (whole uint32, subs []uint32) {
	h := s.cfg.Code.H
	sub := len(col) / h
	subs = make([]uint32, h)
	for r := range subs {
		subs[r] = colSum(col[r*sub : (r+1)*sub])
		whole = s.subShift.shift(whole) ^ subs[r]
	}
	return whole, subs
}
