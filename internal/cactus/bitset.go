package cactus

import "math/bits"

// bitset is a fixed-width bit vector over kernel vertices: the form a
// chainLog stores a part in when that is smaller than a vertex list.
type bitset []uint64

func (b bitset) set(i int) { b[i>>6] |= 1 << uint(i&63) }

// forEachSet calls fn with the index of every set bit, ascending.
func (b bitset) forEachSet(fn func(i int)) {
	for wi, w := range b {
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
