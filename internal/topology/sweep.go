package topology

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"github.com/urbandata/datapolygamy/internal/stgraph"
)

// This file is the merge-tree kernel. A radix sort of the function values
// off the plateau (the value most vertices hold) gives the join sweep
// order, the split order is derived from it, and each tree is built by a
// flat int32 sweep over pooled scratch (Procedure ComputeJoinTree,
// Appendix B.2). The sweep's union-find holds nodes, not vertices: a
// vertex off the plateau is a node, and so is each maximal run of plateau
// vertices of one region over consecutive steps, whose vertices all link
// to it for good. Both sweeps visit the plateau in
// descending id, row by row, so the swept part of a run is always one
// component, and a plateau vertex below the top of its run that the bit
// rows show regular (see plateauRow) is never visited.

// ComputeJoin builds the join tree of the function vals defined on the
// vertices of g, tracking connected components of super-level sets with
// decreasing function value. It runs in O(N + N alpha(N)) for the planar
// domain graphs used here. vals must not contain NaN.
func ComputeJoin(g *stgraph.Graph, vals []float64) *Tree {
	join, _ := compute(g, vals, true, false)
	return join
}

// ComputeSplit builds the split tree of vals on g, tracking sub-level sets
// with increasing function value; leaves are the minima of vals.
func ComputeSplit(g *stgraph.Graph, vals []float64) *Tree {
	_, split := compute(g, vals, false, true)
	return split
}

// ComputeBoth builds the join and the split tree of vals from one sort; the
// trees equal those of ComputeJoin and ComputeSplit.
func ComputeBoth(g *stgraph.Graph, vals []float64) (join, split *Tree) {
	return compute(g, vals, true, true)
}

// Persistence is ComputeBoth without the trees: it writes the leaves and
// persistence of the join tree of vals on g into join and those of the
// split tree into split, reusing their buffers.
func Persistence(g *stgraph.Graph, vals []float64, join, split *Extrema) {
	vals = vals[:g.NumVertices()]
	s := sweepers.Get().(*sweeper)
	defer sweepers.Put(s)
	s.sortDescending(vals, g.NumRegions())
	s.sweep(g, vals, Join, join)
	s.splitOrder()
	s.sweep(g, vals, Split, split)
}

func compute(g *stgraph.Graph, vals []float64, wantJoin, wantSplit bool) (join, split *Tree) {
	vals = vals[:g.NumVertices()]
	s := sweepers.Get().(*sweeper)
	defer sweepers.Put(s)
	s.sortDescending(vals, g.NumRegions())
	if wantJoin {
		s.sweep(g, vals, Join, &s.ext)
		join = s.tree(Join)
	}
	if wantSplit {
		s.splitOrder()
		s.sweep(g, vals, Split, &s.ext)
		split = s.tree(Split)
	}
	return join, split
}

// tree copies the last sweep's extrema and destroyers out into a Tree.
func (s *sweeper) tree(kind Kind) *Tree {
	x := s.ext
	t := &Tree{kind: kind, Pairs: make([]Pair, len(x.Leaves)), Extrema: Extrema{
		Leaves: slices.Clone(x.Leaves), Persistence: slices.Clone(x.Persistence), Critical: x.Critical}}
	for i, leaf := range x.Leaves {
		t.Pairs[i] = Pair{Creator: int(leaf), Destroyer: int(s.dest[i]), Persistence: x.Persistence[i], Essential: s.dest[i] == -1}
	}
	return t
}

// sweeper is the kernel's scratch, reused across functions through the
// sweepers pool; its buffers grow to the largest domain seen.
type sweeper struct {
	// order holds the vertices off the plateau in sweep order and keys
	// their sort keys; the Tmp buffers are the sort's spares.
	keys, keysTmp   []uint64
	order, orderTmp []int32
	count           [radixDigits][1 << radixBits]int32
	// parent is the union-find forest (see find): one slot per vertex,
	// then one per run of the plateau. A vertex off the plateau is a node
	// with its own slot; a plateau vertex starts each sweep linked to its
	// run's slot (see link).
	parent  []int32
	regions int
	// The plateau's bit rows have ⌈regions/64⌉ words per step, bit r of
	// row t standing for vertex (t, r): plat holds the plateau, pre what
	// the sweep visits before the plateau — the larger values in the join,
	// the smaller after splitOrder. below counts the join's vertices before
	// the plateau, and last is the plateau's lowest id, the plateau vertex
	// both sweeps reach last.
	plat, pre []uint64
	below     int
	last      int32
	ok        []uint64 // the current step's regular plateau (see plateauRow)
	shortcuts int      // plateau vertices the last sweep settled from the rows
	comps     []component
	roots     []int32 // distinct upper components at the current vertex
	// dest[i] is the destroyer of the last sweep's leaf i: a saddle, -1
	// for the essential pair, unpaired until a saddle kills it.
	dest []int32
	ext  Extrema // the extrema ComputeJoin/Split/Both copy into a Tree
	// edge, when set, is called with every merge-tree edge (upper, lower)
	// in construction order: the hook the oracle test checks the tree's
	// structure through.
	edge func(upper, lower int32)
}

var sweepers = sync.Pool{New: func() any { return new(sweeper) }}

// component is the state of one level-set component. Components are
// numbered like the leaves that create them: comps[i] starts at leaves[i].
type component struct {
	head    int32 // latest critical vertex: the upper end of the next edge
	creator int32 // leaf index of the component's oldest extremum
	rank    int8
}

const (
	unswept  = -1 // parent[x] before the sweep reaches node x
	unpaired = -2 // the destroyer of an extremum no saddle has killed yet

	radixBits   = 11
	radixMask   = 1<<radixBits - 1
	radixDigits = (64 + radixBits - 1) / radixBits
)

// sortKey maps x to a key whose ascending order is descending float order,
// with -0.0 and +0.0 sharing a key as they compare equal.
func sortKey(x float64) uint64 {
	b := math.Float64bits(x)
	if b == 1<<63 {
		b = 0
	}
	// Non-negative floats: flip the low 63 bits so larger sorts first.
	// Negative floats already grow with magnitude and keep the top bit.
	return b ^ (^uint64(int64(b)>>63) >> 1)
}

// sortDescending sorts vals, a function on a domain of the given number of
// regions, for the join sweep — decreasing value, ties broken by higher
// vertex id (simulated perturbation) — and sets up the union-find forest.
//
// Fine-resolution functions are mostly one value (zero counts, the imputed
// mean), so that plateau is never sorted: a first pass votes for the
// Boyer–Moore majority, and a second, in descending id, sets each plateau
// vertex's bit in plat. Only every other vertex gets a key: its bit in pre
// if its value is larger, and its key and id into the LSD radix sort, whose
// digit histograms that pass also fills (a digit that is the same in every
// key is skipped). s.order then holds the other vertices in join order, the
// first below of them before the plateau; the plateau itself, in
// descending id, lies between.
func (s *sweeper) sortDescending(vals []float64, regions int) {
	n := len(vals)
	if cap(s.order) < n {
		s.keys, s.keysTmp = make([]uint64, n), make([]uint64, n)
		s.order, s.orderTmp = make([]int32, n), make([]int32, n)
	}
	if cap(s.parent) < n {
		s.parent = make([]int32, n)
	}
	words := (regions + 63) / 64
	rows := n / regions * words
	if cap(s.plat) < rows {
		s.plat, s.pre = make([]uint64, rows), make([]uint64, rows)
	}
	plat, pre, parent := s.plat[:rows], s.pre[:rows], s.parent[:n]
	count := &s.count
	*count = [radixDigits][1 << radixBits]int32{}
	var plateau float64 // values compare as their keys do: -0.0 == +0.0
	votes := 0
	for v := n - 1; v >= 0; v-- {
		switch x := vals[v]; {
		case votes == 0:
			plateau, votes = x, 1
		case x == plateau:
			votes++
		default:
			votes--
		}
	}
	plateauKey := sortKey(plateau)

	// Descending ids, as a stable sort keeps ties: the steps from the last,
	// each step's words and their regions from the top.
	keys, ids := s.keysTmp[:n], s.orderTmp[:n]
	m, below := 0, 0
	for row := rows - words; row >= 0; row -= words {
		for x := words - 1; x >= 0; x-- {
			first := row/words*regions + x<<6
			xs := vals[first : first+min(64, regions-x<<6)]
			var pw, bw uint64 // this word's plat and pre
			for b := len(xs) - 1; b >= 0; b-- {
				if xs[b] == plateau {
					pw |= 1 << b
					continue
				}
				k := sortKey(xs[b])
				if k < plateauKey {
					bw |= 1 << b
					below++
				}
				keys[m], ids[m] = k, int32(first+b)
				m++
				for d := range count {
					count[d][k>>(d*radixBits)&radixMask]++
				}
			}
			plat[row+x], pre[row+x] = pw, bw
		}
	}
	last := int32(-1)
	for w, p := range plat {
		if p != 0 {
			last = int32(w/words*regions + w%words<<6 + bits.TrailingZeros64(p))
			break
		}
	}

	// Radix sort the m keys, ping-ponging between the two buffer pairs.
	srcK, srcI := keys[:m], ids[:m]
	dstK, dstI := s.keys[:m], s.order[:m]
	for d := range count {
		next, shift := &count[d], d*radixBits
		if m == 0 || next[srcK[0]>>shift&radixMask] == int32(m) {
			continue
		}
		sum := int32(0)
		for b, c := range next {
			next[b] = sum
			sum += c
		}
		for i, k := range srcK {
			b := k >> shift & radixMask
			p := next[b]
			next[b] = p + 1
			dstK[p], dstI[p] = k, srcI[i]
		}
		srcK, dstK, srcI, dstI = dstK, srcK, dstI, srcI
	}
	s.keys, s.keysTmp, s.order, s.orderTmp = srcK, dstK[:0], srcI, dstI[:0]
	s.parent, s.regions = parent, regions
	s.plat, s.pre, s.below, s.last = plat, pre, below, last
	s.link()
}

// link sets up the union-find forest for a sweep: every node unswept, and
// each plateau vertex linked to its run's node — the node of the vertex
// one step later if that one is on the plateau, else a new one. A sweep's
// path halving may shorten those links, so each sweep gets fresh ones.
func (s *sweeper) link() {
	words, regions := (s.regions+63)/64, s.regions
	plat, parent := s.plat, s.parent
	n := len(plat) / words * regions
	runs := int32(n)
	for row := len(plat) - words; row >= 0; row -= words {
		for x := words - 1; x >= 0; x-- {
			first := row/words*regions + x<<6
			ps := parent[first : first+min(64, regions-x<<6)]
			pw, linked := plat[row+x], uint64(0) // this word's plateau, and its part on the plateau one step later too
			if row+words < len(plat) {
				if linked = pw & plat[row+words+x]; linked != 0 {
					copy(ps, parent[first+regions:]) // the links one step later
				}
			}
			// The rest, top down: a run's top starts a new run, a vertex
			// off the plateau is unswept. Branch-free: the bits are noise.
			for rest := ^linked & (1<<len(ps) - 1); rest != 0; {
				b := 63 - bits.LeadingZeros64(rest)
				rest &^= 1 << b
				on, p := int32(pw>>b&1), runs
				if on == 0 {
					p = unswept
				}
				ps[b] = p
				runs += on
			}
		}
	}
	if cap(parent) < int(runs) {
		parent = append(parent[:n], make([]int32, int(runs)-n)...)
	}
	parent = parent[:runs]
	for i := n; i < len(parent); i++ {
		parent[i] = unswept
	}
	s.parent = parent
}

// splitOrder turns s.order from the join into the split sweep order
// (increasing value, ties by higher vertex id): the runs of equal value in
// reverse sequence, each run kept as it is — a reversal of the whole, then
// of each run where it landed. The split visits before its plateau what the
// join visits after it.
func (s *sweeper) splitOrder() {
	order, keys, n := s.order, s.keys, len(s.order)
	slices.Reverse(order)
	for hi := n; hi > 0; {
		lo := hi - 1
		for lo > 0 && keys[lo-1] == keys[lo] {
			lo--
		}
		slices.Reverse(order[n-hi : n-lo])
		hi = lo
	}
	for i, p := range s.plat {
		s.pre[i] = ^(s.pre[i] | p)
	}
	s.link()
}

// plateauAt returns where the plateau falls in s.order: the number of
// vertices off it that the sweep of the given kind visits before it.
func (s *sweeper) plateauAt(kind Kind) int {
	if kind == Split {
		return len(s.order) - s.below
	}
	return s.below
}

// lastSwept returns the vertex the sweep of the given kind reaches last,
// the root of its tree.
func (s *sweeper) lastSwept(kind Kind) int32 {
	if s.plateauAt(kind) == len(s.order) {
		return s.last
	}
	return s.order[len(s.order)-1]
}

// anySet reports whether a row has a bit set.
func anySet(row []uint64) bool {
	for _, w := range row {
		if w != 0 {
			return true
		}
	}
	return false
}

// find returns the root node of x's component, halving the path. A root r
// holds its component index as parent[r] = -2 - index (see compOf).
func find(parent []int32, x int32) int32 {
	for {
		p := parent[x]
		if p < 0 {
			return x
		}
		pp := parent[p]
		if pp < 0 {
			return p
		}
		parent[x] = pp
		x = pp
	}
}

func compOf(parent []int32, root int32) int32 { return -2 - parent[root] }

// sweep visits the vertices in sweep order — s.order up to the plateau,
// the plateau, the rest of s.order — maintaining level-set components in a
// union-find forest over the nodes and pairing creators with destroyers,
// and writes the leaves and their persistence into out (the destroyers
// into s.dest).
//
// The plateau is visited step by step from the last, each step in
// descending region. A plateau vertex (t, r) that the bit rows show
// regular with (t+1, r) (see plateauRow) has the component of (t+1, r):
// below the top of its run that is its own run's, so the sweep skips it;
// at the top it joins the run's node to it. Every other vertex walks its
// neighbours. A neighbour off the plateau has been swept when its node
// has; one on it, after the plateau, or on it when its id is the higher.
// Before the plateau no run is swept, so no swept vertex links to a run:
// a link to one is a plateau vertex's. On the plateau the bit rows tell.
func (s *sweeper) sweep(g *stgraph.Graph, vals []float64, kind Kind, out *Extrema) {
	order, parent, plat := s.order, s.parent, s.plat
	n := int32(g.NumVertices())
	R := int32(g.NumRegions())
	off, delta := g.NeighborOffsets()
	maskOff, masks := g.NeighborMasks()
	comps, roots := s.comps[:0], s.roots[:0]
	leaves, pers, dest := out.Leaves[:0], out.Persistence[:0], s.dest[:0]
	critical, paired, shortcuts := 0, 0, 0

	words := int(R+63) / 64
	if cap(s.ok) < words {
		s.ok = make([]uint64, words)
	}
	ok := s.ok[:words]
	lo := s.plateauAt(kind)
	// On the plateau, row is the first word of step t's row and bs the
	// bits of word x still to visit: the run tops and the vertices ok does
	// not settle. A link to a run slot of firstUnswept or above is an
	// unswept plateau vertex's: before the plateau that is every run slot.
	steps := n / R
	t, row, x, bs := steps, len(plat), 0, uint64(0)
	firstUnswept := n

	for i := 0; ; {
		var v, xv int32 // the vertex and its node
		var region uint32
		fresh, onPlateau := true, false // fresh: v's node is not swept yet
		if i == lo && t >= 0 {
			for bs == 0 {
				if x > 0 {
					x--
					bs = plat[row+x]
					if o := ok[x]; o != 0 { // ok is clear on the last step
						bs &^= plat[row+words+x] & o
					}
					continue
				}
				if t--; t < 0 {
					break
				}
				row -= words
				if !anySet(plat[row : row+words]) {
					continue // nothing to visit: skip plateauRow's walk of pre
				}
				s.plateauRow(row, ok, maskOff, masks)
				for j, o := range ok {
					shortcuts += bits.OnesCount64(o & plat[row+j])
				}
				x = words
			}
			if t < 0 {
				continue
			}
			firstUnswept = math.MaxInt32 // a run's top is visited first
			k := 63 - bits.LeadingZeros64(bs)
			bs &^= 1 << k
			region = uint32(x<<6 + k)
			v = t*R + int32(region)
			xv, onPlateau = parent[v], true
			fresh = t+1 == steps || plat[row+words+x]>>k&1 == 0
			if fresh && ok[x]>>k&1 != 0 {
				r := find(parent, v+R)
				parent[xv], parent[v] = r, r
				continue
			}
		} else if i < len(order) {
			v = order[i]
			region, xv = uint32(v)%uint32(R), v
			i++
		} else {
			break
		}
		if onPlateau {
			roots = s.upperOnPlateau(roots[:0], delta[off[region]:off[region+1]], v, int32(region), row, n)
		} else {
			roots = upper(roots[:0], parent, delta[off[region]:off[region+1]], v, n, firstUnswept)
		}

		switch len(roots) {
		case 0:
			// v is an extremum: it creates a component and is a leaf.
			c := int32(len(comps))
			comps = append(comps, component{head: v, creator: c})
			parent[xv] = -2 - c
			leaves = append(leaves, v)
			pers = append(pers, 0)
			dest = append(dest, unpaired)
		case 1:
			// Regular vertex: join the component. Head and creator change
			// only at critical points, so edges connect critical vertices.
			if fresh {
				parent[xv] = roots[0]
			}
			parent[v] = roots[0]
		default:
			// v is a destroyer (merge saddle). A Morse function merges two
			// components; a PL multi-saddle merges k at once, pairing all
			// creators but the oldest with v.
			survivor := comps[compOf(parent, roots[0])].creator
			for _, r := range roots[1:] {
				survivor = min(survivor, comps[compOf(parent, r)].creator)
			}
			win := roots[0]
			for i, r := range roots {
				c := comps[compOf(parent, r)]
				if s.edge != nil {
					s.edge(c.head, v)
				}
				if c.head == leaves[c.creator] {
					critical++ // first merge of this component: its head is a leaf
				}
				if c.creator != survivor {
					dest[c.creator], pers[c.creator] = v, math.Abs(vals[v]-vals[leaves[c.creator]])
					paired++
				}
				if i == 0 {
					continue
				}
				w := &comps[compOf(parent, win)] // union by rank
				switch {
				case c.rank > w.rank:
					parent[win], win = r, r
				case c.rank == w.rank:
					w.rank++
					parent[r] = win
				default:
					parent[r] = win
				}
			}
			w := &comps[compOf(parent, win)]
			w.head, w.creator = v, survivor
			if fresh {
				parent[xv] = win
			}
			parent[v] = win
			critical++
		}
	}

	// The vertex swept last is the root. The creator that survives in its
	// component is the global extremum: an essential pair with persistence
	// equal to the function range.
	root := s.lastSwept(kind)
	node := root
	if lo == len(order) {
		node = parent[root] // the plateau's run
	}
	c := comps[compOf(parent, find(parent, node))]
	extreme := leaves[c.creator]
	dest[c.creator], pers[c.creator] = -1, math.Abs(vals[root]-vals[extreme])
	paired++
	if c.head == extreme {
		critical++
	}
	if c.head != root {
		if s.edge != nil {
			s.edge(c.head, root)
		}
		critical++
	}
	if paired < len(leaves) {
		// Disconnected domain: a component that never reaches the root's
		// keeps its oldest extremum unpaired, and that is not a leaf.
		k := 0
		for i, d := range dest {
			if d != unpaired {
				leaves[k], pers[k], dest[k] = leaves[i], pers[i], d
				k++
			}
		}
		leaves, pers, dest = leaves[:k], pers[:k], dest[:k]
	}

	s.comps, s.roots, s.dest = comps, roots, dest
	s.shortcuts = shortcuts
	out.Leaves, out.Persistence, out.Critical = leaves, pers, critical
}

// upper appends to roots the distinct components of the swept neighbours
// of v, a vertex off the plateau, in neighbour order — the order that fixes
// the order of the edges at a saddle. A link to a run slot of firstUnswept
// or above is a plateau vertex's whose run is not swept yet.
func upper(roots, parent, nbrs []int32, v, n, firstUnswept int32) []int32 {
neighbors:
	for _, d := range nbrs {
		u := v + d
		if uint32(u) >= uint32(n) {
			continue
		}
		p := parent[u]
		if p == unswept || p >= firstUnswept {
			continue
		}
		r := u
		if p >= 0 {
			r = find(parent, u)
		}
		for _, seen := range roots {
			if seen == r {
				continue neighbors
			}
		}
		roots = append(roots, r)
	}
	return roots
}

// upperOnPlateau is upper for v on the plateau, at region of the step
// whose row starts at word row, on a domain of n vertices: a plateau
// neighbour of lower id is not swept yet, whatever its run.
func (s *sweeper) upperOnPlateau(roots, nbrs []int32, v, region int32, row int, n int32) []int32 {
	parent, plat, R := s.parent, s.plat, int32(s.regions)
neighbors:
	for _, d := range nbrs {
		u := v + d
		if uint32(u) >= uint32(n) || parent[u] == unswept {
			continue
		}
		if u < v {
			ur, urow := region+d, row // u's region and row
			if d == -R {
				ur, urow = region, row-(s.regions+63)>>6
			}
			if plat[urow+int(ur>>6)]>>(ur&63)&1 != 0 {
				continue
			}
		}
		r := find(parent, u)
		for _, seen := range roots {
			if seen == r {
				continue neighbors
			}
		}
		roots = append(roots, r)
	}
	return roots
}

// plateauRow decides from the bit rows which plateau vertices (t, r) of the
// step whose row starts at word row are regular with (t+1, r) in their one
// upper component. When the sweep reaches (t, r), the swept vertices are
// pre and the plateau vertices of higher id, and S = pre ∪ plat is what is
// swept by the end of the plateau. (t, r) is regular when t+1 < T and
//
//	(i)   r ∈ S[t+1];
//	(ii)  every spatial neighbour r′ of r already swept — r′ ∈ pre[t], or
//	      r′ ∈ plat[t] with r′ > r — has r′ ∈ S[t+1];
//	(iii) t = 0 or r ∉ pre[t−1].
//
// Then (t+1, r) is swept, each swept (t, r′) is joined to (t+1, r′) by a
// temporal and on to (t+1, r) by a spatial edge between swept vertices, and
// (t−1, r) is not swept: every swept neighbour has the root of (t+1, r),
// the one root the neighbour walk would find. The spatial step needs a
// symmetric adjacency, which stgraph.New enforces.
//
// plateauRow sets in ok the regions that pass (i) and (iii). The adjacency
// being symmetric, (ii) fails for r exactly when r neighbours a vertex of
// pre[t] ∖ S[t+1], or lies below a neighbour in plat[t] ∖ S[t+1]: those
// few vertices clear their neighbour masks (stgraph.Graph.NeighborMasks)
// from ok.
func (s *sweeper) plateauRow(row int, ok []uint64, maskOff []int32, masks []stgraph.MaskWord) {
	words, next := len(ok), row+len(ok)
	if next == len(s.plat) {
		clear(ok) // the last step has no (t+1, r)
		return
	}
	for x := range ok {
		ok[x] = s.pre[next+x] | s.plat[next+x]
		if row > 0 {
			ok[x] &^= s.pre[row-words+x]
		}
	}
	for x := range ok {
		swept := s.pre[next+x] | s.plat[next+x]
		for b := s.pre[row+x] &^ swept; b != 0; b &= b - 1 {
			u := x<<6 + bits.TrailingZeros64(b)
			for _, m := range masks[maskOff[u]:maskOff[u+1]] {
				ok[m.Word] &^= m.Bits
			}
		}
		for b := s.plat[row+x] &^ swept; b != 0; b &= b - 1 {
			u, low := x<<6+bits.TrailingZeros64(b), b&-b-1 // low: the regions below u in its word
			for _, m := range masks[maskOff[u]:maskOff[u+1]] {
				if int(m.Word) < x {
					ok[m.Word] &^= m.Bits
				} else if int(m.Word) == x {
					ok[m.Word] &^= m.Bits & low
				}
			}
		}
	}
}
