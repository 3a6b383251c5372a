package cactus

import (
	"encoding/binary"
	"math/bits"
	"sync"
	"unsafe"
)

// bitset is a fixed-width bit vector used for cut sides (over kernel
// vertices) and atom sets during cactus construction.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << uint(i&63) }
func (b bitset) get(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

func (b bitset) clone() bitset {
	c := make(bitset, len(b))
	copy(c, b)
	return c
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// key returns a map key identifying the bitset's content.
func (b bitset) key() string {
	buf := make([]byte, 8*len(b))
	for i, w := range b {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	return string(buf)
}

// viewKey returns a map key identifying the bitset's content as a
// zero-copy view of its words. The caller must not mutate b while any
// map still holds the key — the signature-grouping passes of the cactus
// assembly qualify (signature matrices are read-only once built), and
// skipping the per-word copy of key() matters there because those keys
// span the whole cut family (C/8 bytes each).
func (b bitset) viewKey() string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String((*byte)(unsafe.Pointer(&b[0])), 8*len(b))
}

// orWith ORs c into b in place (b |= c).
func (b bitset) orWith(c bitset) {
	for i := range b {
		b[i] |= c[i]
	}
}

// forEachSet calls fn with the index of every set bit, ascending. Word
// iteration makes the cactus-assembly loops Σ|side| instead of C·n: the
// sides of a minimum-cut family are mostly sparse once the kernelization
// has contracted the graph.
func (b bitset) forEachSet(fn func(i int)) {
	for wi, w := range b {
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

func (b bitset) intersects(c bitset) bool {
	for i := range b {
		if b[i]&c[i] != 0 {
			return true
		}
	}
	return false
}

// subsetOf reports b ⊆ c.
func (b bitset) subsetOf(c bitset) bool {
	for i := range b {
		if b[i]&^c[i] != 0 {
			return false
		}
	}
	return true
}

// bitsetArena carves fixed-width bitsets out of pooled slabs, so a cut
// enumeration materializing 10⁵–10⁶ sides produces thousands of
// GC-visible allocations instead of one per cut (the word slabs are
// pointer-free) and consecutive cuts land adjacent in memory — which is
// exactly the access order of the transpose gather that consumes them.
// Not safe for concurrent use; the sharded enumeration keeps one arena
// per worker.
type bitsetArena struct {
	words int
	free  []uint64
}

func newBitsetArena(nbits int) *bitsetArena {
	return &bitsetArena{words: (nbits + 63) / 64}
}

// alloc returns a zeroed bitset of the arena's width.
func (ar *bitsetArena) alloc() bitset {
	if len(ar.free) < ar.words {
		ar.free = make([]uint64, 1024*ar.words)
	}
	b := bitset(ar.free[:ar.words:ar.words])
	ar.free = ar.free[ar.words:]
	return b
}

// clone returns an arena-backed copy of b, which must have the arena's
// width.
func (ar *bitsetArena) clone(b bitset) bitset {
	c := ar.alloc()
	copy(c, b)
	return c
}

// transpose64 transposes the 64×64 bit block a in place with the
// log-step masked-swap recursion (Hacker's Delight §7-3, mirrored for
// LSB-first words): bit c of word r moves to bit r of word c. Six
// passes of word-wide swaps replace the 4096 single-bit moves of the
// naive transpose.
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; j >>= 1 {
		for b := 0; b < 64; b += j << 1 {
			for k := b; k < b+j; k++ {
				t := (a[k]>>uint(j) ^ a[k+j]) & m
				a[k] ^= t << uint(j)
				a[k+j] ^= t
			}
		}
		m ^= m << uint(j>>1)
	}
}

// transposeBits returns the ncols×nrows transpose of the nrows×ncols
// bit matrix held in rows (out[c] bit r ⟺ rows[r] bit c), computed as
// cache-blocked 64×64 word transposes: O(nrows·ncols/64) word
// operations in place of a per-set-bit scatter. Every row must span
// exactly ncols bits (newBitset(ncols)); the output rows share one
// backing array. The 64-column output blocks are independent, so the
// work shards across workers with no synchronization beyond the final
// join.
func transposeBits(rows []bitset, ncols, workers int) []bitset {
	nrows := len(rows)
	outWords := (nrows + 63) / 64
	out := make([]bitset, ncols)
	backing := make([]uint64, ncols*outWords)
	for c := range out {
		out[c] = bitset(backing[c*outWords : (c+1)*outWords : (c+1)*outWords])
	}
	colBlocks := (ncols + 63) / 64
	parallelBlocks(workers, colBlocks, func(cbLo, cbHi int) {
		var blk [64]uint64
		for rb := 0; rb < nrows; rb += 64 {
			rn := nrows - rb
			if rn > 64 {
				rn = 64
			}
			rowBlk := rows[rb : rb+rn]
			wo := rb >> 6
			for cb := cbLo; cb < cbHi; cb++ {
				for i, r := range rowBlk {
					blk[i] = r[cb]
				}
				for i := rn; i < 64; i++ {
					blk[i] = 0
				}
				transpose64(&blk)
				cn := ncols - cb<<6
				if cn > 64 {
					cn = 64
				}
				// Scatter straight into the shared backing (row c starts at
				// c*outWords), sparing a slice-header load per word.
				base := cb<<6*outWords + wo
				for j := 0; j < cn; j++ {
					backing[base+j*outWords] = blk[j]
				}
			}
		}
	})
	return out
}

// parallelBlocks splits [0, n) into one contiguous range per worker and
// runs fn on each concurrently; with one worker (or nothing to split)
// it runs inline. fn ranges are disjoint, so fn needs no locking as
// long as it writes only state owned by its range.
func parallelBlocks(workers, n int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	wg.Wait()
}
