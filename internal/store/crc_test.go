package store

import (
	"hash/crc32"
	"math/rand"
	"testing"
)

// TestCRCShiftMatchesChecksum is the differential test for the
// fixed-length combine operator: for random block lengths, block
// counts and contents, the checksum chained from per-block checksums
// must equal crc32.Checksum over the concatenation.
func TestCRCShiftMatchesChecksum(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{1, 2, 3, 7, 64, 512, 4095, 4096, 4097, 32 << 10} {
		checkCRCShift(t, rng, n, 1+rng.Intn(6))
	}
	for i := 0; i < 200; i++ {
		checkCRCShift(t, rng, 1+rng.Intn(10000), 1+rng.Intn(6))
	}
}

func checkCRCShift(t *testing.T, rng *rand.Rand, n, blocks int) {
	t.Helper()
	op := newCRCShift(n)
	buf := make([]byte, n*blocks)
	if rng.Intn(8) != 0 { // now and then all zeros: the operator's own input
		rng.Read(buf)
	}
	var chained uint32
	for b := 0; b < blocks; b++ {
		chained = op.shift(chained) ^ colSum(buf[b*n:(b+1)*n])
	}
	if want := crc32.Checksum(buf, castagnoli); chained != want {
		t.Fatalf("%d blocks of %d bytes: chained %08x, crc32.Checksum %08x", blocks, n, chained, want)
	}
}

// TestColSumsMatchesTwoPasses: the one-pass column checksums equal what
// the two separate passes they replace computed.
func TestColSumsMatchesTwoPasses(t *testing.T) {
	s, err := Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(72))
	h := s.cfg.Code.H
	sub := s.cfg.NodeSize / h
	for i := 0; i < 50; i++ {
		col := make([]byte, s.cfg.NodeSize)
		rng.Read(col)
		whole, subs := s.colSums(col)
		if whole != colSum(col) {
			t.Fatalf("column sum %08x, want %08x", whole, colSum(col))
		}
		for r := 0; r < h; r++ {
			if want := colSum(col[r*sub : (r+1)*sub]); subs[r] != want {
				t.Fatalf("sub-block %d sum %08x, want %08x", r, subs[r], want)
			}
		}
	}
}
