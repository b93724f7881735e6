package topology

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"github.com/urbandata/datapolygamy/internal/stgraph"
)

// This file is the merge-tree kernel. One LSD radix sort of the function
// values gives the join sweep order, the split order is derived from it,
// and each tree is built by a flat int32 sweep over pooled scratch
// (Procedure ComputeJoinTree, Appendix B.2).

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
// sweepers pool; its per-vertex buffers grow to the largest domain seen.
type sweeper struct {
	keys, keysTmp []uint64 // sort keys, parallel to order / orderTmp
	// order holds the vertex ids in sweep order; orderTmp, the sort's
	// spare, serves the sweep as its union-find forest (see find).
	order, orderTmp []int32
	count           [radixDigits][1 << radixBits]int32
	// The plateau is order[below : below+run] in join order. Its bit rows
	// have ⌈regions/64⌉ words per step, bit r of row t standing for vertex
	// (t, r): plat holds the plateau, pre what the sweep visits before the
	// plateau — the larger values in the join, the smaller after splitOrder.
	plat, pre  []uint64
	below, run int
	ok         []uint64 // the current step's regular plateau (see plateauRow)
	shortcuts  int      // plateau vertices the last sweep settled from the rows
	comps      []component
	roots      []int32 // distinct upper components at the current vertex
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
	unswept  = -1 // parent[v] before the sweep reaches v
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

// sortDescending leaves in s.order the vertices of vals, a function on a
// domain of the given number of regions, in join sweep order — decreasing
// value, ties broken by higher vertex id (simulated perturbation) — and in
// s.keys their keys.
//
// Fine-resolution functions are mostly one value (zero counts, the imputed
// mean), so the plateau is taken out before sorting: the pass that builds
// the keys also picks a Boyer–Moore majority candidate, the candidate's run
// is partitioned out — already in descending-id order, the order a stable
// sort leaves ties in — and only the other keys are radix sorted, with the
// run spliced in between the smaller and the larger keys. The sort is LSD
// radix whose digit histograms all come from the partition pass; a digit
// that is the same in every key is skipped. The partition pass also fills
// the plateau's bit rows (see sweeper).
func (s *sweeper) sortDescending(vals []float64, regions int) {
	n := len(vals)
	if cap(s.order) < n {
		s.keys, s.keysTmp = make([]uint64, n), make([]uint64, n)
		s.order, s.orderTmp = make([]int32, n), make([]int32, n)
	}
	words := (regions + 63) / 64
	rows := n / regions * words
	if cap(s.plat) < rows {
		s.plat, s.pre = make([]uint64, rows), make([]uint64, rows)
	}
	plat, pre := s.plat[:rows], s.pre[:rows]
	clear(plat)
	clear(pre)
	keys, ids := s.keys[:n], s.order[:n]
	tmpK, tmpI := s.keysTmp[:n], s.orderTmp[:n]
	count := &s.count
	*count = [radixDigits][1 << radixBits]int32{}
	var plateau uint64
	votes := 0
	for i := range keys { // descending ids: a stable sort keeps ties that way
		v := n - 1 - i
		k := sortKey(vals[v])
		keys[i], ids[i] = k, int32(v)
		switch {
		case votes == 0:
			plateau, votes = k, 1
		case k == plateau:
			votes++
		default:
			votes--
		}
	}

	// Partition: the plateau's ids compact to the front of ids (a write
	// never overtakes the read), the other keys go to tmp in order and into
	// the digit histograms. Each vertex sets its bit in plat, or in pre if
	// its value is larger; its row and region count down with the ids.
	run, m, below := 0, 0, 0
	row, r := rows-words, regions-1
	for i, k := range keys {
		w, bit := row+r>>6, uint64(1)<<(r&63)
		if r--; r < 0 {
			row, r = row-words, regions-1
		}
		if k == plateau {
			ids[run] = ids[i]
			run++
			plat[w] |= bit
			continue
		}
		if k < plateau {
			below++
			pre[w] |= bit
		}
		tmpK[m], tmpI[m] = k, ids[i]
		m++
		for d := range count {
			count[d][k>>(d*radixBits)&radixMask]++
		}
	}

	// Radix sort the m other keys, ping-ponging between tmp[:m] and the
	// slots of keys/ids behind the run.
	srcK, srcI := tmpK[:m], tmpI[:m]
	dstK, dstI := keys[run:], ids[run:]
	inTmp := true
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
		inTmp = !inTmp
	}

	// Splice [keys below the plateau | the run | keys above it] into the
	// pair of buffers not holding the sorted keys. The run moves first: in
	// ids it may overlap where it lands.
	outK, outI, spareK, spareI := keys, ids, tmpK, tmpI
	if !inTmp {
		outK, outI, spareK, spareI = tmpK, tmpI, keys, ids
	}
	copy(outI[below:below+run], ids[:run])
	copy(outI[:below], srcI[:below])
	copy(outI[below+run:], srcI[below:])
	copy(outK[:below], srcK[:below])
	copy(outK[below+run:], srcK[below:])
	for i := below; i < below+run; i++ {
		outK[i] = plateau
	}
	s.keys, s.keysTmp, s.order, s.orderTmp = outK, spareK, outI, spareI
	s.plat, s.pre, s.below, s.run = plat, pre, below, run
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
}

// find returns the root vertex of x's component, halving the path. A root r
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

// sweep processes the vertices in s.order, maintaining level-set
// components in a union-find forest and pairing creators with destroyers,
// and writes the leaves and their persistence into out (the destroyers
// into s.dest). A plateau vertex that the bit rows show regular (see
// plateauRow) joins the component of the vertex one step later; every
// other vertex walks its neighbours.
func (s *sweeper) sweep(g *stgraph.Graph, vals []float64, kind Kind, out *Extrema) {
	order := s.order
	n := int32(len(order))
	R := uint32(g.NumRegions())
	off, delta := g.NeighborOffsets()
	maskOff, masks := g.NeighborMasks()
	parent := s.orderTmp
	for i := range parent {
		parent[i] = unswept
	}
	comps, roots := s.comps[:0], s.roots[:0]
	leaves, pers, dest := out.Leaves[:0], out.Persistence[:0], s.dest[:0]
	critical, paired, shortcuts := 0, 0, 0

	// The plateau is order[lo:hi] in both sweeps, in descending id order,
	// so the row of its vertices counts down: row is the first word of the
	// row of the step that starts at vertex rowStart, and ok marks that
	// step's regular plateau vertices (see plateauRow).
	lo := int32(s.below)
	if kind == Split {
		lo = n - int32(s.below+s.run)
	}
	hi := lo + int32(s.run)
	words := int(R+63) / 64
	row, rowStart := len(s.plat), n
	if cap(s.ok) < words {
		s.ok = make([]uint64, words)
	}
	ok := s.ok[:words]

	for i, v := range order {
		var region uint32
		if int32(i) < lo || int32(i) >= hi {
			region = uint32(v) % R
		} else {
			if v < rowStart {
				for v < rowStart {
					row, rowStart = row-words, rowStart-int32(R)
				}
				s.plateauRow(row, ok, maskOff, masks)
			}
			region = uint32(v - rowStart)
			if ok[region>>6]>>(region&63)&1 != 0 {
				parent[v] = find(parent, v+int32(R))
				shortcuts++
				continue
			}
		}
		roots = roots[:0]
		// Neighbor order fixes the order of the edges at a saddle.
	neighbors:
		for _, d := range delta[off[region]:off[region+1]] {
			u := v + d
			if uint32(u) >= uint32(n) || parent[u] == unswept {
				continue
			}
			r := find(parent, u)
			for _, seen := range roots {
				if seen == r {
					continue neighbors
				}
			}
			roots = append(roots, r)
		}

		switch len(roots) {
		case 0:
			// v is an extremum: it creates a component and is a leaf.
			c := int32(len(comps))
			comps = append(comps, component{head: v, creator: c})
			parent[v] = -2 - c
			leaves = append(leaves, v)
			pers = append(pers, 0)
			dest = append(dest, unpaired)
		case 1:
			// Regular vertex: join the component. Head and creator change
			// only at critical points, so edges connect critical vertices.
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
			parent[v] = win
			critical++
		}
	}

	// The vertex swept last is the root. The creator that survives in its
	// component is the global extremum: an essential pair with persistence
	// equal to the function range.
	root := order[n-1]
	c := comps[compOf(parent, find(parent, root))]
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
