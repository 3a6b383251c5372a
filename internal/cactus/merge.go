package cactus

import "fmt"

// cactus builds the kernel's cactus from the KT chains: it replays them
// from the last step to the first and splits the root's node into a
// path at each step, the construction of Karzanov and Timofeev (see
// Fleischer, "Building chain and cactus representations of all minimum
// cuts from Hao–Orlin in the same asymptotic run time", J. Algorithms
// 1999). No cut is materialized and no two cuts are compared.
//
// Terms, as in EachMinCut: a unit of a node is one incident tree edge or
// one cycle through it; a unit's far side is what lies beyond it; a
// cycle node's hanging set is its own vertices plus everything beyond it
// off that cycle. Normal form, which a cut family's cactus has exactly
// one of: every cycle has at least 4 nodes (a 3-part circular partition
// is a star, an empty node with three tree edges), and an empty node has
// at least 3 units unless both of its 2 units are cycles.
//
// Invariant: after steps n−1 … i+1 the structure is the normal-form
// cactus of the kernel with v_0 … v_i contracted into one vertex s, and
// the root N (node 0) is s's node. Its minimum cuts are those of steps
// i+1 … n−1, since step j records the cuts whose far side (the side
// without v_0) has v_j as its earliest vertex; so the invariant holds
// with one node before step n−1, and step 1 leaves the kernel's cactus.
// Every other node x keeps rep[x], a vertex of its far side seen from N.
//
// Step i splits v_i off s. Its chain X_0 ⊂ … ⊂ X_{r−1} is every minimum
// cut separating v_i from S_i = {v_0 … v_{i−1}}, with parts P_0 … P_r
// (chainLog). In the new cactus those cuts are the tree edges and
// cycle-edge pairs along the path π from v_i's node to S_i's. They form
// a chain, so π crosses each cycle through one cycle edge, and the parts
// are, in order: for each node p on π, p's vertices plus the far sides
// of its units off π (unless empty), and for each cycle π crosses, the
// hanging sets of its other nodes. Contracting π gives the old cactus:
// π's nodes merge into N with their units off π, and a crossed cycle
// loses a node, becoming a star hung from N if 3 remain. The step undoes
// that contraction, unit by unit of N:
//
//	(a) a unit whose far side lies inside one part P_j came from π's
//	    node of that part: it moves to P_j's path node (j = r: it stays);
//	(b) a cycle whose nodes' hanging sets are whole, consecutive parts
//	    was crossed: it opens into the cycle y, z_1 … z_k, x, its old
//	    nodes in part order, y and x the path nodes just before and just
//	    after that run;
//	(c) a tree edge to an empty node c with exactly three units, the far
//	    sides of c's two other units being two consecutive whole parts,
//	    is a crossed 4-cycle written as a star: it opens into the 4-cycle
//	    y, u_1, u_2, x. A tree unit contributes its child node; a cycle
//	    unit an empty node carrying that cycle (c itself for the first),
//	    since normal form had merged such a node into c;
//	(d) every other part becomes a path node holding N's vertices in
//	    that part; P_0's node also gets v_i, and P_r's node is N itself.
//	    Consecutive path nodes are joined by tree edges, and two
//	    consecutive runs meet at a new empty path node: an empty node of
//	    π between two crossed cycles has no part.
//
// One rep per node tells the cases apart: a unit from π's node p has its
// whole far side, rep included, in p's part; a crossed cycle's nodes hang
// at least 3 whole parts, a star's two units two. Normal form is kept:
// (b) and (c) leave cycles of at least 5 and 4 nodes; a path node holds
// vertices, or a moved unit besides its two path links, or sits between
// two cycles; an empty node of (c) carries two cycles. Reps stay valid:
// a step changes no far side off π, and every new node's far side seen
// from N contains v_i. A family breaking this — a unit hanging a part it
// shares, a part with no content, a cycle under odd λ — is not a
// minimum-cut family and fails with an error.
//
// Cost: a step reads one rep per unit of N, per node of N's cycles and
// per star, and the vertices of its parts: O(nk), inside the O(nk·m)
// of the KT flows. Nodes are numbered in creation order, so the cactus
// is byte-identical for every worker count.
func (c *ktChains) cactus(lambda int64) (*Cactus, error) {
	m := &merger{
		lambda: lambda,
		nodeOf: make([]int32, c.nk),
		stamp:  make([]int32, c.nk),
		partOf: make([]int32, c.nk),
		// A step has at most nk parts: they are disjoint and nonempty.
		content: make([]int32, c.nk+1),
		runOf:   make([]int32, c.nk+1),
		pathOf:  make([]int32, c.nk+1),
	}
	m.newNode(-1) // the root, holding every vertex
	m.nverts[0] = int32(c.nk)
	for s := len(c.segs) - 1; s >= 0; s-- {
		seg := c.segs[s]
		for k := seg.hi - 1; k >= seg.lo; k-- {
			if err := m.split(seg.log, k); err != nil {
				return nil, err
			}
		}
	}
	return m.result(), nil
}

// merger is the cactus under construction. Units are stored as entries:
// a tree edge is two twinned half-edges, one per endpoint, and a cycle
// is one slot per node, linked in cycle order. Each node keeps its
// entries in a doubly linked list.
type merger struct {
	lambda int64
	nodeOf []int32 // kernel vertex -> node

	nverts []int32 // per node: vertices on it
	nunits []int32 // per node: units at it
	head   []int32 // per node: first entry of its list, -1 if none
	rep    []int32 // per node but the root: a vertex of its far side

	units  []unit
	cycles []int32 // per cycle: one of its slots

	// Per-step scratch.
	nstep         int32
	stamp, partOf []int32 // per vertex: the step that marked it, its part
	content       []int32 // per part: root vertices and units it receives
	runOf, pathOf []int32 // per part: the run claiming it, its path node
	moves         []move
	runs          []run
	rootVerts     []int32 // root vertices in parts P_0 … P_{r−1}
}

// unit is one entry of a node's list.
type unit struct {
	node       int32 // the node the entry is at, -1 once removed
	prev, next int32 // the node's list
	cycle      int32 // cycle id, or -1 for a tree half-edge
	a, b       int32 // half-edge: both the twin; slot: the previous and next slots
}

// move is rule (a): entry e moves to part's path node.
type move struct{ e, part int32 }

// run is rule (b) or (c): parts lo … hi hang from one unit of the root.
type run struct {
	lo, hi int32
	entry  int32    // the root's slot of the cycle (b), or its half-edge to the star (c)
	asc    bool     // (b): the slot's successor hangs part lo
	star   [2]int32 // (c): the star's other two entries, by part
	y, x   int32    // the path nodes before and after
}

func (m *merger) newNode(rep int32) int32 {
	x := int32(len(m.nverts))
	m.nverts = append(m.nverts, 0)
	m.nunits = append(m.nunits, 0)
	m.head = append(m.head, -1)
	m.rep = append(m.rep, rep)
	return x
}

func (m *merger) attach(e, x int32) {
	u := &m.units[e]
	u.node, u.prev, u.next = x, -1, m.head[x]
	if u.next >= 0 {
		m.units[u.next].prev = e
	}
	m.head[x] = e
	m.nunits[x]++
}

func (m *merger) detach(e int32) {
	u := &m.units[e]
	if u.prev >= 0 {
		m.units[u.prev].next = u.next
	} else {
		m.head[u.node] = u.next
	}
	if u.next >= 0 {
		m.units[u.next].prev = u.prev
	}
	m.nunits[u.node]--
	u.node = -1
}

func (m *merger) moveTo(e, x int32) {
	m.detach(e)
	m.attach(e, x)
}

func (m *merger) newEntry(x, cycle, a, b int32) int32 {
	e := int32(len(m.units))
	m.units = append(m.units, unit{cycle: cycle, a: a, b: b})
	m.attach(e, x)
	return e
}

func (m *merger) addTree(x, y int32) {
	e := int32(len(m.units))
	m.newEntry(x, -1, e+1, e+1)
	m.newEntry(y, -1, e, e)
}

func (m *merger) removeTree(e int32) {
	m.detach(m.units[e].a)
	m.detach(e)
}

// insertSlot adds node x to the cycle of slot s, right after s.
func (m *merger) insertSlot(s, x int32) {
	next := m.units[s].b
	e := m.newEntry(x, m.units[s].cycle, s, next)
	m.units[next].a = e
	m.units[s].b = e
}

// far returns the node across entry e: the twin's node of a half-edge,
// the next node of a slot. Its rep lies in e's far side.
func (m *merger) far(e int32) int32 { return m.units[m.units[e].b].node }

// part returns the part of the current step holding vertex v; r is P_r.
func (m *merger) part(v, r int32) int32 {
	if m.stamp[v] == m.nstep {
		return m.partOf[v]
	}
	return r
}

func errNotFamily(t int32, what string) error {
	return fmt.Errorf("cactus: KT chain of target %d: %s; cut family is not a minimum-cut family", t, what)
}

// split replays step k of l: rules (a)–(d) of ktChains.cactus.
func (m *merger) split(l *chainLog, k int) error {
	const root = 0
	t := l.steps[k].target
	m.nstep++
	m.rootVerts = m.rootVerts[:0]
	r := l.eachVertex(k, func(j, v int32) {
		m.stamp[v], m.partOf[v] = m.nstep, j
		if m.nodeOf[v] == root {
			m.rootVerts = append(m.rootVerts, v)
		}
	})
	for j := int32(0); j <= r; j++ {
		m.content[j], m.runOf[j] = 0, -1
	}
	for _, v := range m.rootVerts {
		m.content[m.partOf[v]]++
	}

	// Classify the root's units.
	m.moves, m.runs = m.moves[:0], m.runs[:0]
	addMove := func(e, j int32) {
		if j < r {
			m.moves = append(m.moves, move{e, j})
			m.content[j]++
		}
	}
	addRun := func(rn run) error {
		if rn.lo < 1 || rn.hi >= r {
			return errNotFamily(t, "a unit hangs the first or the last part")
		}
		for j := rn.lo; j <= rn.hi; j++ {
			if m.runOf[j] >= 0 {
				return errNotFamily(t, "two units hang the same part")
			}
			m.runOf[j] = int32(len(m.runs))
		}
		m.runs = append(m.runs, rn)
		return nil
	}
	for e := m.head[root]; e >= 0; e = m.units[e].next {
		u := m.units[e]
		if u.cycle < 0 {
			w := m.far(e)
			if m.nverts[w] != 0 || m.nunits[w] != 3 {
				addMove(e, m.part(m.rep[w], r))
				continue
			}
			var o [2]int32
			n := 0
			for f := m.head[w]; f >= 0; f = m.units[f].next {
				if f != u.a {
					o[n] = f
					n++
				}
			}
			j0, j1 := m.part(m.rep[m.far(o[0])], r), m.part(m.rep[m.far(o[1])], r)
			if j0 > j1 {
				j0, j1, o[0], o[1] = j1, j0, o[1], o[0]
			}
			switch {
			case j0 == j1:
				addMove(e, j0)
			case j1 == j0+1:
				if err := addRun(run{lo: j0, hi: j1, entry: e, star: o}); err != nil {
					return err
				}
			default:
				return errNotFamily(t, "a star's units hang parts that are not consecutive")
			}
			continue
		}
		first := m.part(m.rep[m.far(e)], r)
		last, same, asc, desc := first, true, true, true
		for f := m.units[u.b].b; f != e; f = m.units[f].b {
			j := m.part(m.rep[m.units[f].node], r)
			same, asc, desc = same && j == last, asc && j == last+1, desc && j == last-1
			last = j
		}
		var err error
		switch {
		case same:
			addMove(e, first)
		case asc:
			err = addRun(run{lo: first, hi: last, entry: e, asc: true})
		case desc:
			err = addRun(run{lo: last, hi: first, entry: e})
		default:
			err = errNotFamily(t, "a cycle's nodes hang parts out of order")
		}
		if err != nil {
			return err
		}
	}
	for j := int32(1); j < r; j++ {
		if (m.runOf[j] >= 0) != (m.content[j] == 0) {
			return errNotFamily(t, "a part is shared by a unit's far side or holds nothing")
		}
	}
	if len(m.runs) > 0 && m.lambda%2 != 0 {
		return fmt.Errorf("cactus: crossing cuts with odd λ=%d; cut family is not a minimum-cut family", m.lambda)
	}

	// (d): the path, from P_0's node to the root.
	prevNode, prevRun := int32(-1), int32(-1)
	for j := int32(0); j <= r; {
		if ri := m.runOf[j]; ri >= 0 {
			if prevRun >= 0 {
				y := m.newNode(t)
				m.runs[prevRun].x = y
				m.runs[ri].y = y
			} else {
				m.runs[ri].y = prevNode
			}
			prevRun, j = ri, m.runs[ri].hi+1
			continue
		}
		y := int32(root)
		if j < r {
			y = m.newNode(t)
		}
		m.pathOf[j] = y
		if prevRun >= 0 {
			m.runs[prevRun].x = y
		} else if prevNode >= 0 {
			m.addTree(prevNode, y)
		}
		prevNode, prevRun = y, -1
		j++
	}

	// (a)
	for _, mv := range m.moves {
		m.moveTo(mv.e, m.pathOf[mv.part])
	}
	for _, rn := range m.runs {
		if m.units[rn.entry].cycle >= 0 { // (b)
			zk := m.units[rn.entry].a
			if rn.asc {
				m.moveTo(rn.entry, rn.y)
				m.insertSlot(zk, rn.x)
			} else {
				m.moveTo(rn.entry, rn.x)
				m.insertSlot(zk, rn.y)
			}
			continue
		}
		// (c)
		c := m.far(rn.entry)
		m.removeTree(rn.entry)
		var u [2]int32
		reused := false
		for i, o := range rn.star {
			if m.units[o].cycle < 0 {
				u[i] = m.far(o)
				m.removeTree(o)
				continue
			}
			u[i] = c
			if reused {
				u[i] = m.newNode(-1)
				m.moveTo(o, u[i])
			}
			reused = true
			m.rep[u[i]] = m.rep[m.far(o)]
		}
		q, first := int32(len(m.cycles)), int32(len(m.units))
		for i, x := range [4]int32{rn.y, u[0], u[1], rn.x} {
			m.newEntry(x, q, first+int32(i+3)%4, first+int32(i+1)%4)
		}
		m.cycles = append(m.cycles, first)
	}

	for _, v := range m.rootVerts {
		y := m.pathOf[m.partOf[v]]
		m.nodeOf[v] = y
		m.nverts[y]++
	}
	m.nverts[root] -= int32(len(m.rootVerts))
	return nil
}

// result renumbers the live nodes in creation order and lists the tree
// edges, in creation order, then every cycle's edges in cycle order.
func (m *merger) result() *Cactus {
	c := &Cactus{Lambda: m.lambda, NumCycles: len(m.cycles), VertexNode: make([]int32, len(m.nodeOf))}
	id := make([]int32, len(m.nverts))
	for x := range id {
		id[x] = -1
		if m.nverts[x] > 0 || m.nunits[x] > 0 {
			id[x] = int32(c.NumNodes)
			c.NumNodes++
		}
	}
	for v, x := range m.nodeOf {
		c.VertexNode[v] = id[x]
	}
	for e, u := range m.units {
		if u.cycle < 0 && u.node >= 0 && int32(e) < u.a {
			c.Edges = append(c.Edges, Edge{A: id[u.node], B: id[m.units[u.a].node], Cycle: -1, Weight: m.lambda})
		}
	}
	for q, first := range m.cycles {
		for e := first; ; {
			u := m.units[e]
			c.Edges = append(c.Edges, Edge{A: id[u.node], B: id[m.units[u.b].node], Cycle: int32(q), Weight: m.lambda / 2})
			if e = u.b; e == first {
				break
			}
		}
	}
	return c
}
