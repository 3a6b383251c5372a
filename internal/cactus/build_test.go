package cactus

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"unsafe"

	"repro/internal/dsu"
)

// This file is the reference cactus assembly the chain merge
// (merge.go) is checked against: a cut family materialized as a C×n
// bit matrix, sorted canonically and assembled by the
// Dinitz–Karzanov–Lomonosov structure theorem. The quadratic
// enumeration (quadratic_test.go) feeds it through cutList.

// cutList is a kernel's minimum-cut family as canonical sides (bitsets
// over the nk kernel vertices, none containing k0), assembled by
// buildCactus over workers.
type cutList struct {
	nk      int
	k0      int32
	cuts    []bitset
	workers int
}

func (l *cutList) size() int { return len(l.cuts) }

func (l *cutList) cactus(lambda int64) (*Cactus, error) {
	return buildCactus(l.nk, l.k0, sortCanonical(l.cuts, l.workers), lambda, l.workers)
}

// cutsOf expands the KT chains into their cut sides, X_j = P_0 ∪ … ∪ P_j
// for every step: the same family as a cut list.
func (c *ktChains) cutsOf() []bitset {
	var cuts []bitset
	for _, seg := range c.segs {
		for k := seg.lo; k < seg.hi; k++ {
			side := newBitset(c.nk)
			cur := int32(0)
			seg.log.eachVertex(k, func(j, v int32) {
				if j != cur {
					cuts = append(cuts, side.clone())
					cur = j
				}
				side.set(int(v))
			})
			cuts = append(cuts, side.clone())
		}
	}
	return cuts
}

// sortCanonical returns the cuts in canonical kernel order (side size,
// then lexicographic), so the reference cactus is deterministic. The
// size key is a counting sort (sizes are bounded by nk); only the
// per-size buckets need comparison sorting, which keeps every
// comparison single-key and lets the buckets sort across the workers.
func sortCanonical(kcuts []bitset, workers int) []bitset {
	sizes := make([]int, len(kcuts))
	maxSize := 0
	for i, m := range kcuts {
		sizes[i] = m.count()
		if sizes[i] > maxSize {
			maxSize = sizes[i]
		}
	}
	offs := make([]int32, maxSize+2)
	for _, s := range sizes {
		offs[s+1]++
	}
	for s := 1; s < len(offs); s++ {
		offs[s] += offs[s-1]
	}
	bounds := append([]int32(nil), offs...) // bucket s occupies perm[bounds[s]:bounds[s+1]]
	perm := make([]int32, len(kcuts))
	for i, s := range sizes {
		perm[offs[s]] = int32(i)
		offs[s]++
	}
	parallelBlocks(workers, maxSize+1, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			b := perm[bounds[s]:bounds[s+1]]
			if len(b) < 2 {
				continue
			}
			sort.Slice(b, func(x, y int) bool {
				i, j := b[x], b[y]
				for w := len(kcuts[i]) - 1; w >= 0; w-- {
					if kcuts[i][w] != kcuts[j][w] {
						return kcuts[i][w] < kcuts[j][w]
					}
				}
				return false
			})
		}
	})
	sorted := make([]bitset, len(kcuts))
	for a, i := range perm {
		sorted[a] = kcuts[i]
	}
	return sorted
}

// buildCactus assembles the cactus over nk kernel vertices from the
// deduplicated canonical minimum-cut sides (bitsets over kernel vertices,
// none containing root vertex k0). It returns the node of every kernel
// vertex plus the edge/cycle structure.
//
// The construction follows the Dinitz–Karzanov–Lomonosov structure
// theorem directly, since the full cut family is in hand:
//
//   - atoms: kernel vertices with identical cut membership are never
//     separated and share a cactus node;
//   - crossing classes: cuts are grouped by the transitive closure of the
//     crossing relation; each class of ≥ 2 cuts spans a circular partition
//     whose parts become consecutive nodes of a cactus cycle (the circle
//     order is recovered from the class's length-2 arcs);
//   - the remaining (pairwise non-crossing) cuts form a laminar family and
//     become tree edges, except singleton/complement arcs of a circular
//     partition, which the cycle already encodes.
//
// The assembly is word-parallel and worker-parallel. Every signature
// matrix — per-vertex cut membership, per-atom cut membership, and the
// per-class part structure — is produced by cache-blocked 64×64 bit
// transposes (transposeBits) instead of per-set-bit scatter loops, so
// the dominant cost drops from Σ|side| per-bit callbacks to
// O(C·nk/64) word operations for C cuts. Crossing classes come from a
// single size-ascending sweep with union masks (crossingClasses); the
// per-class circular-partition recovery then fans out across workers
// (classes are independent), or spends the workers inside one class's
// transposes when the family is a single crossing class. The merge
// below runs in deterministic class order, so the cactus is
// byte-identical for every worker count.
func buildCactus(nk int, k0 int32, cuts []bitset, lambda int64, workers int) (*Cactus, error) {
	c := &Cactus{Lambda: lambda, VertexNode: make([]int32, nk)}
	if len(cuts) == 0 {
		c.NumNodes = 1
		return c, nil
	}
	if workers < 1 {
		workers = 1
	}

	// --- Atoms: group kernel vertices by cut-membership signature. ---
	// sigs is the nk×C transpose of the C×nk cut-side matrix: sigs[v]
	// has bit i set iff cut i contains vertex v.
	sigs := transposeBits(cuts, nk, workers)
	atomOf := make([]int32, nk)
	atomIndex := map[string]int32{}
	var atomRep []int32 // one representative vertex per atom
	for v := 0; v < nk; v++ {
		key := sigs[v].viewKey() // sigs is read-only from here on
		a, ok := atomIndex[key]
		if !ok {
			a = int32(len(atomIndex))
			atomIndex[key] = a
			atomRep = append(atomRep, int32(v))
		}
		atomOf[v] = a
	}
	natoms := len(atomIndex)
	atom0 := atomOf[k0]

	// Cuts as atom sets (canonical: atom0 outside every side). Every
	// vertex of an atom has the same signature, so transposing the
	// natoms×C matrix of representative signatures back yields each
	// cut's atom set without touching individual bits. When every vertex
	// is its own atom the representatives are the vertices in order
	// (first-appearance numbering) and that transpose would reproduce the
	// cut sides verbatim — reuse them instead; all downstream access is
	// read-only.
	atomSigs := make([]bitset, natoms)
	for a, v := range atomRep {
		atomSigs[a] = sigs[v]
	}
	cutA := cuts
	if natoms != nk {
		cutA = transposeBits(atomSigs, len(cuts), workers)
	}

	// --- Crossing classes (one size-ascending union-mask sweep). ---
	// Groups come out in first-appearance order (ascending smallest cut
	// index) — deterministic, since the cut list is canonically sorted.
	groups := crossingClasses(cutA).Groups()
	var laminarCuts []int32
	var circularClasses [][]int32
	for _, grp := range groups {
		if len(grp) == 1 {
			laminarCuts = append(laminarCuts, grp[0])
		} else {
			circularClasses = append(circularClasses, grp)
		}
	}

	// --- Circular partitions from crossing classes, in parallel. ---
	// Classes are independent after the sweep, so they shard across the
	// workers; a lone class (cycle-heavy families collapse to one)
	// instead spends the workers inside its own transposes. Results are
	// merged below in class order, keeping the construction
	// deterministic for every worker count.
	type classResult struct {
		parts []bitset // circle order; parts[0] is the atom0 part
		err   error
	}
	results := make([]classResult, len(circularClasses))
	if len(circularClasses) == 1 {
		results[0].parts, results[0].err =
			circularFromClass(cutA, atomSigs, circularClasses[0], natoms, atom0, workers)
	} else {
		parallelBlocks(workers, len(circularClasses), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				results[i].parts, results[i].err =
					circularFromClass(cutA, atomSigs, circularClasses[i], natoms, atom0, 1)
			}
		})
	}
	for i := range results {
		if results[i].err != nil {
			return nil, results[i].err
		}
	}

	type circular struct {
		pieceIdx []int32 // circle order, -1 at the position of the atom0 part
	}
	var circulars []circular

	type pieceInfo struct {
		atoms bitset
		size  int
		// isCut: a tree edge is emitted for this piece (laminar cut).
		isCut bool
	}
	var pieces []pieceInfo
	pieceIndex := map[string]int32{}
	internPiece := func(atoms bitset) int32 {
		key := atoms.key()
		if p, ok := pieceIndex[key]; ok {
			return p
		}
		p := int32(len(pieces))
		pieceIndex[key] = p
		pieces = append(pieces, pieceInfo{atoms: atoms, size: atoms.count()})
		return p
	}
	// Sides already represented by some cycle (singleton and complement
	// arcs); laminar cuts matching them are skipped.
	cycleRepresented := map[string]struct{}{}

	for _, res := range results {
		k := len(res.parts)
		circ := circular{pieceIdx: make([]int32, k)}
		comp := newBitset(natoms)
		circ.pieceIdx[0] = -1
		for i := 1; i < k; i++ {
			circ.pieceIdx[i] = internPiece(res.parts[i])
			cycleRepresented[res.parts[i].key()] = struct{}{}
			comp.orWith(res.parts[i])
		}
		cycleRepresented[comp.key()] = struct{}{}
		circulars = append(circulars, circ)
	}

	// --- Laminar cuts → pieces (unless a cycle already encodes them). ---
	for _, ci := range laminarCuts {
		if _, dup := cycleRepresented[cutA[ci].key()]; dup {
			continue
		}
		p := internPiece(cutA[ci].clone())
		pieces[p].isCut = true
	}

	// --- Laminar forest over the pieces. ---
	orderIdx := make([]int32, len(pieces))
	for i := range orderIdx {
		orderIdx[i] = int32(i)
	}
	sort.Slice(orderIdx, func(i, j int) bool {
		return pieces[orderIdx[i]].size > pieces[orderIdx[j]].size
	})
	parent := make([]int32, len(pieces)) // forest parent piece, -1 = root region
	for i := range parent {
		parent[i] = -1
	}
	for oi, pi := range orderIdx {
		// Smallest strict superset among larger pieces: scan upwards in
		// increasing size.
		for oj := oi - 1; oj >= 0; oj-- {
			pj := orderIdx[oj]
			if pieces[pi].atoms.subsetOf(pieces[pj].atoms) {
				parent[pi] = pj
				break
			}
			if pieces[pi].atoms.intersects(pieces[pj].atoms) && !pieces[pj].atoms.subsetOf(pieces[pi].atoms) {
				return nil, fmt.Errorf("cactus: pieces overlap without nesting; cut family is not a minimum-cut family")
			}
		}
	}

	// --- Nodes: 0 = root region, 1+i = piece i. ---
	c.NumNodes = 1 + len(pieces)
	nodeOfAtom := make([]int32, natoms) // smallest piece containing the atom
	bestSize := make([]int, natoms)
	for a := range bestSize {
		bestSize[a] = 1 << 30
	}
	for pi := range pieces {
		sz := pieces[pi].size
		node := int32(1 + pi)
		pieces[pi].atoms.forEachSet(func(a int) {
			if sz < bestSize[a] {
				bestSize[a] = sz
				nodeOfAtom[a] = node
			}
		})
	}
	for v := 0; v < nk; v++ {
		c.VertexNode[v] = nodeOfAtom[atomOf[v]]
	}

	nodeOfPiece := func(p int32) int32 {
		if p < 0 {
			return 0
		}
		return 1 + p
	}

	// --- Tree edges. ---
	for pi := range pieces {
		if pieces[pi].isCut {
			c.Edges = append(c.Edges, Edge{
				A: nodeOfPiece(parent[pi]), B: int32(1 + pi), Cycle: -1, Weight: lambda,
			})
		}
	}

	// --- Cycles. ---
	for _, circ := range circulars {
		if lambda%2 != 0 {
			return nil, fmt.Errorf("cactus: crossing cuts with odd λ=%d; cut family is not a minimum-cut family", lambda)
		}
		// The closing node is the region all circle pieces hang from; it
		// must be common to the whole class.
		closing := int32(-2)
		for _, p := range circ.pieceIdx[1:] {
			pp := nodeOfPiece(parent[p])
			if closing == -2 {
				closing = pp
			} else if closing != pp {
				return nil, fmt.Errorf("cactus: circular parts have different enclosing regions")
			}
		}
		cid := int32(c.NumCycles)
		c.NumCycles++
		nodes := make([]int32, len(circ.pieceIdx))
		for i, p := range circ.pieceIdx {
			if i == 0 {
				nodes[i] = closing
			} else {
				nodes[i] = 1 + p
			}
		}
		for i := range nodes {
			j := (i + 1) % len(nodes)
			c.Edges = append(c.Edges, Edge{A: nodes[i], B: nodes[j], Cycle: cid, Weight: lambda / 2})
		}
	}
	return c, nil
}

// circularFromClass recovers one crossing class's circular partition:
// the class's parts (atoms with identical membership across the class's
// cuts) in circle order, rotated so the part containing atom0 comes
// first (at index 0). members must ascend.
//
// The recovery is fully word-parallel. The class's atoms are grouped
// into parts by their membership signature across the class's cuts; a
// transpose of the k deduplicated part signatures then gives every
// class cut its inside parts as one k-bit set (a class cut is a union
// of whole parts). The circle adjacencies — a cut whose side or
// complement spans exactly two parts makes them neighbors — are then
// popcounts and bit extractions, replacing the former epoch-stamped
// per-set-bit scan.
func circularFromClass(cutA, atomSigs []bitset, members []int32, natoms int, atom0 int32, workers int) ([]bitset, error) {
	// Per-atom signatures over the class's cuts, by one of two routes:
	//
	//   - a DOMINANT class (most of the family — the cycle-heavy shape,
	//     where everything but the laminar fringe is one class) masks the
	//     non-member columns out of the full atom signatures: straight
	//     word ANDs over rows already in hand, no bit gather. The masked
	//     rows keep the family's column width; the zeroed non-member
	//     columns are identical across atoms, so the grouping is the same.
	//   - a SMALL class transposes just its member rows, keeping the work
	//     proportional to the class.
	//
	// The rows are read-only below either way, so the grouping keys the
	// map with zero-copy views.
	dominant := 2*len(members) >= len(cutA)
	var partSig []bitset
	switch {
	case len(members) == len(cutA):
		partSig = atomSigs
	case dominant:
		mask := newBitset(len(cutA))
		for _, ci := range members {
			mask.set(int(ci))
		}
		words := len(mask)
		partSig = make([]bitset, natoms)
		backing := make([]uint64, natoms*words)
		for a := 0; a < natoms; a++ {
			row := backing[a*words : (a+1)*words : (a+1)*words]
			src := atomSigs[a]
			for w := range row {
				row[w] = src[w] & mask[w]
			}
			partSig[a] = bitset(row)
		}
	default:
		rows := make([]bitset, len(members))
		for i, ci := range members {
			rows[i] = cutA[ci]
		}
		partSig = transposeBits(rows, natoms, workers)
	}
	partIndex := map[string]int32{}
	partOf := make([]int32, natoms)
	var partRep []int32 // one representative atom per part
	for a := 0; a < natoms; a++ {
		key := partSig[a].viewKey()
		p, ok := partIndex[key]
		if !ok {
			p = int32(len(partIndex))
			partIndex[key] = p
			partRep = append(partRep, int32(a))
		}
		partOf[a] = p
	}
	k := len(partIndex)
	if k < 4 {
		return nil, fmt.Errorf("cactus: crossing class spans %d parts (< 4); cut family is not a minimum-cut family", k)
	}
	partAtoms := make([]bitset, k)
	for p := range partAtoms {
		partAtoms[p] = newBitset(natoms)
	}
	for a := 0; a < natoms; a++ {
		partAtoms[partOf[a]].set(a)
	}

	// Per-cut part sets, then circle order from length-2 arcs. Dominant
	// classes transpose over the family's full column range and index the
	// result by cut id (non-member rows come out zero and are never
	// read); the whole-family case skips the transpose outright — atom
	// signatures are pairwise distinct, so every atom is its own part and
	// the per-cut part sets are the cut atom sets already in hand.
	var cutParts []bitset // indexed by position in members, or by cut id
	byCutID := dominant
	if len(members) == len(cutA) && k == natoms {
		cutParts = cutA
	} else {
		repRows := make([]bitset, k)
		for p, a := range partRep {
			repRows[p] = partSig[a]
		}
		if dominant {
			cutParts = transposeBits(repRows, len(cutA), workers)
		} else {
			cutParts = transposeBits(repRows, len(members), workers)
		}
	}
	adjacent := make([][]int32, k)
	addPair := func(p, q int32) {
		for _, x := range adjacent[p] {
			if x == q {
				return
			}
		}
		adjacent[p] = append(adjacent[p], q)
		adjacent[q] = append(adjacent[q], p)
	}
	for mi, ci := range members {
		cp := cutParts[mi]
		if byCutID {
			cp = cutParts[ci]
		}
		inside := cp.count()
		if inside == 2 {
			p0, p1 := int32(-1), int32(-1)
			cp.forEachSet(func(x int) {
				if p0 < 0 {
					p0 = int32(x)
				} else {
					p1 = int32(x)
				}
			})
			addPair(p0, p1)
		}
		if k-inside == 2 {
			q0, q1 := int32(-1), int32(-1)
			for p := int32(0); p < int32(k); p++ {
				if !cp.get(int(p)) {
					if q0 < 0 {
						q0 = p
					} else {
						q1 = p
						break
					}
				}
			}
			addPair(q0, q1)
		}
	}

	for p := 0; p < k; p++ {
		if len(adjacent[p]) != 2 {
			return nil, fmt.Errorf("cactus: circular part has %d neighbors (want 2)", len(adjacent[p]))
		}
	}
	order := make([]int32, 0, k)
	prev, cur := int32(-1), int32(0)
	for {
		order = append(order, cur)
		next := adjacent[cur][0]
		if next == prev {
			next = adjacent[cur][1]
		}
		prev, cur = cur, next
		if cur == 0 {
			break
		}
	}
	if len(order) != k {
		return nil, fmt.Errorf("cactus: circle closes after %d of %d parts", len(order), k)
	}
	// Rotate so the atom0 part comes first; its circle position is
	// played by the node of the enclosing region.
	aPos := -1
	for i, p := range order {
		if partAtoms[p].get(int(atom0)) {
			aPos = i
			break
		}
	}
	if aPos < 0 {
		return nil, fmt.Errorf("cactus: no circular part contains the root atom")
	}
	parts := make([]bitset, k)
	for i := 0; i < k; i++ {
		parts[i] = partAtoms[order[(aPos+i)%k]]
	}
	return parts, nil
}

// crossingClasses groups the canonical cut sides (atom sets, none
// containing the root atom) by the transitive closure of the crossing
// relation in ONE size-ascending sweep, replacing the former pairwise
// O(C²) crossing loop. An open component is a crossing-connected set of
// already-processed sides summarized by the union U of its members; the
// current side A merges every component whose U intersects A without
// being contained in it, and then joins the open list itself.
//
// Two facts make the single aggregate test exact. First, no side
// contains the root atom, so the "outside" quadrant of the crossing
// predicate is always inhabited and two sides cross iff they intersect
// and neither contains the other. Second, the sweep order guarantees
// every member m of an open component satisfies |m| ≤ |A|, hence m ⊄ A
// implies m crosses A or m ∩ A = ∅:
//
//   - completeness: if some member m crosses A, then m ∩ A ≠ ∅ and
//     m ⊄ A, so U intersects A and U ⊄ A — the component merges;
//   - soundness: if no member crosses A, every member is a subset of A
//     or disjoint from it; a crossing pair inside the component cannot
//     join a subset-member to a disjoint-member (their intersection
//     would have to both meet and miss A), so the connected component
//     lies entirely on one side — U ⊆ A or U ∩ A = ∅ — and is kept.
//
// Singleton sides never cross anything (a crossing partner would need
// the one atom both inside and outside), so they are never opened; they
// end up as singleton classes, i.e. laminar cuts.
func crossingClasses(cutA []bitset) *dsu.DSU {
	classes := dsu.New(len(cutA))
	// Size-ascending order by counting sort (sizes are bounded by the atom
	// count): any size-ascending order yields the same partition, and the
	// comparison sort this replaces was a quarter of the assembly.
	sizes := make([]int, len(cutA))
	maxSize := 0
	for i, side := range cutA {
		sizes[i] = side.count()
		if sizes[i] > maxSize {
			maxSize = sizes[i]
		}
	}
	offs := make([]int32, maxSize+2)
	for _, s := range sizes {
		offs[s+1]++
	}
	for s := 1; s < len(offs); s++ {
		offs[s] += offs[s-1]
	}
	order := make([]int32, len(cutA))
	for i, s := range sizes {
		order[offs[s]] = int32(i)
		offs[s]++
	}

	type component struct {
		root  int32
		union bitset
		owned bool // union is a private buffer (false: aliases cutA[root])
	}
	var open []component
	for _, ci := range order {
		side := cutA[ci]
		if sizes[ci] <= 1 {
			continue
		}
		cur := component{root: ci, union: side}
		kept := open[:0]
		for _, cp := range open {
			if !cp.union.intersects(side) || cp.union.subsetOf(side) {
				kept = append(kept, cp)
				continue
			}
			classes.Union(cp.root, ci)
			if !cur.owned {
				cur.union = cur.union.clone()
				cur.owned = true
			}
			cur.union.orWith(cp.union)
		}
		open = append(kept, cur)
	}
	return classes
}

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

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
