package passes

// bitset is a fixed-width bit vector over dense cross-register indices.
type bitset []uint64

func newBitset(bits int) bitset    { return make(bitset, (bits+63)/64) }
func (s bitset) set(i int)         { s[i/64] |= 1 << (i % 64) }
func (s bitset) clear(i int)       { s[i/64] &^= 1 << (i % 64) }
func (s bitset) has(i int) bool    { return s[i/64]&(1<<(i%64)) != 0 }
func (s bitset) copyFrom(o bitset) { copy(s, o) }
func (s bitset) union(o bitset) {
	for i := range s {
		s[i] |= o[i]
	}
}

// transfer sets s to uses ∪ (s \ defs).
func (s bitset) transfer(uses, defs bitset) {
	for i := range s {
		s[i] = uses[i] | s[i]&^defs[i]
	}
}
func (s bitset) equal(o bitset) bool {
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}
