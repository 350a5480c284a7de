package hilbert

import "testing"

// FuzzHilbertEncode holds Encode, Encode2D and Encode4D to the branchy
// reference transform at any point of any order from 1 to 16, for one to
// four dimensions.
func FuzzHilbertEncode(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0), uint32(0), uint8(15))
	f.Add(uint32(0xffff), uint32(0x8000), uint32(1), uint32(0x7fff), uint8(15))
	f.Add(uint32(5), uint32(3), uint32(6), uint32(0), uint8(2))
	f.Fuzz(func(t *testing.T, a, b, c, d uint32, order uint8) {
		bits := uint(order%16) + 1
		mask := uint32(1)<<bits - 1
		p := []uint32{a & mask, b & mask, c & mask, d & mask}
		for n := 1; n <= 4; n++ {
			checkEncode(t, p[:n], bits)
		}
	})
}
