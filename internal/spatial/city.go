package spatial

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Config controls synthetic city generation.
type Config struct {
	Seed          int64 // RNG seed; same seed => identical city
	GridW, GridH  int   // fine grid dimensions before masking
	Neighborhoods int   // target number of neighborhood regions
	ZipCodes      int   // target number of zip-code regions
}

// DefaultConfig returns a city comparable in region counts to NYC:
// roughly 300 regions at both zip-code and neighborhood resolutions
// (Section 5.4, space-overhead discussion).
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed, GridW: 96, GridH: 96, Neighborhoods: 280, ZipCodes: 300}
}

// GridConfig returns the canonical configuration for a seed-and-grid-sized
// synthetic city. Every tool that shares a corpus (gendata, polygamy,
// polygamyd) must build the city from the same configuration: snapshots
// and CSV region IDs are only meaningful over the exact city they were
// produced with, so the seed and grid side alone must determine it.
func GridConfig(seed int64, grid int) Config {
	return Config{
		Seed: seed, GridW: grid, GridH: grid,
		Neighborhoods: grid * 3, ZipCodes: grid * 3,
	}
}

// City is an irregular, non-convex synthetic city: a masked grid of fine
// cells grouped into contiguous neighborhood and zip-code regions. It
// provides the region partitions and adjacency graphs that the domain-graph
// construction (Section 3.1) and the toroidal-shift randomization
// (Section 4) require.
type CityMap struct {
	w, h int

	cellAt []int // grid (y*w+x) -> cell id, or -1 for water/outside

	cellX, cellY []int // cell id -> grid coordinates
	cellNbhd     []int // cell id -> neighborhood id
	cellZip      []int // cell id -> zip id

	numNbhd, numZip int

	cellAdj [][]int // fine-grid 4-adjacency between cells
	nbhdAdj [][]int
	zipAdj  [][]int
}

// Generate builds a deterministic synthetic city from cfg.
func Generate(cfg Config) (*CityMap, error) {
	if cfg.GridW < 4 || cfg.GridH < 4 {
		return nil, fmt.Errorf("spatial: grid %dx%d too small", cfg.GridW, cfg.GridH)
	}
	if cfg.Neighborhoods < 1 || cfg.ZipCodes < 1 {
		return nil, fmt.Errorf("spatial: need at least one region per resolution")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := &CityMap{w: cfg.GridW, h: cfg.GridH}
	c.buildMask(rng)
	if len(c.cellX) == 0 {
		return nil, fmt.Errorf("spatial: mask produced an empty city (seed %d)", cfg.Seed)
	}
	c.cellAdj = c.buildCellAdjacency()
	c.cellNbhd, c.numNbhd = c.partition(rng, cfg.Neighborhoods)
	c.cellZip, c.numZip = c.partition(rng, cfg.ZipCodes)
	c.nbhdAdj = c.regionAdjacency(c.cellNbhd, c.numNbhd)
	c.zipAdj = c.regionAdjacency(c.cellZip, c.numZip)
	return c, nil
}

// buildMask marks cells as land or water: an irregular radial blob with a
// sinusoidally perturbed boundary (non-convex), cut by a river, reduced to
// its largest connected component.
func (c *CityMap) buildMask(rng *rand.Rand) {
	w, h := c.w, c.h
	c.cellAt = make([]int, w*h)
	for i := range c.cellAt {
		c.cellAt[i] = -1
	}
	cx, cy := float64(w)/2, float64(h)/2
	baseR := 0.46 * math.Min(float64(w), float64(h))
	// Random boundary perturbation harmonics make the outline non-convex.
	type harmonic struct {
		k     int
		amp   float64
		phase float64
	}
	hs := make([]harmonic, 4)
	for i := range hs {
		hs[i] = harmonic{k: 2 + i, amp: (0.04 + 0.07*rng.Float64()) * baseR, phase: rng.Float64() * 2 * math.Pi}
	}
	riverPhase := rng.Float64() * 2 * math.Pi
	land := make([]bool, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dx, dy := float64(x)+0.5-cx, float64(y)+0.5-cy
			r := math.Sqrt(dx*dx + dy*dy)
			theta := math.Atan2(dy, dx)
			bound := baseR
			for _, hm := range hs {
				bound += hm.amp * math.Sin(float64(hm.k)*theta+hm.phase)
			}
			if r > bound {
				continue
			}
			// River: a sinusoidal band across the city.
			riverY := cy + 0.18*float64(h)*math.Sin(2*math.Pi*float64(x)/float64(w)+riverPhase)
			if math.Abs(float64(y)-riverY) < 1.2 && r > 0.15*baseR {
				continue
			}
			land[y*w+x] = true
		}
	}
	keep := largestComponent(land, w, h)
	for idx, ok := range keep {
		if ok {
			c.cellAt[idx] = len(c.cellX)
			c.cellX = append(c.cellX, idx%w)
			c.cellY = append(c.cellY, idx/w)
		}
	}
}

// largestComponent returns a mask of the largest 4-connected land component.
func largestComponent(land []bool, w, h int) []bool {
	comp := make([]int, len(land))
	for i := range comp {
		comp[i] = -1
	}
	best, bestSize := -1, 0
	nComp := 0
	var stack []int
	for start, ok := range land {
		if !ok || comp[start] >= 0 {
			continue
		}
		id := nComp
		nComp++
		size := 0
		stack = append(stack[:0], start)
		comp[start] = id
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			x, y := v%w, v/w
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := x+d[0], y+d[1]
				if nx < 0 || ny < 0 || nx >= w || ny >= h {
					continue
				}
				nv := ny*w + nx
				if land[nv] && comp[nv] < 0 {
					comp[nv] = id
					stack = append(stack, nv)
				}
			}
		}
		if size > bestSize {
			best, bestSize = id, size
		}
	}
	out := make([]bool, len(land))
	for i, id := range comp {
		out[i] = id == best
	}
	return out
}

func (c *CityMap) buildCellAdjacency() [][]int {
	adj := make([][]int, len(c.cellX))
	for id := range c.cellX {
		x, y := c.cellX[id], c.cellY[id]
		for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			nx, ny := x+d[0], y+d[1]
			if nx < 0 || ny < 0 || nx >= c.w || ny >= c.h {
				continue
			}
			if n := c.cellAt[ny*c.w+nx]; n >= 0 {
				adj[id] = append(adj[id], n)
			}
		}
	}
	return adj
}

// partition assigns every cell to one of up to k contiguous regions via
// multi-source BFS from k random seed cells (a discrete Voronoi diagram on
// the grid graph, which guarantees connected regions). It returns the
// assignment and the actual number of non-empty regions after compaction.
func (c *CityMap) partition(rng *rand.Rand, k int) ([]int, int) {
	n := len(c.cellX)
	if k > n {
		k = n
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	// Sample k distinct seed cells.
	perm := rng.Perm(n)
	queue := make([]int, 0, n)
	for i := 0; i < k; i++ {
		assign[perm[i]] = i
		queue = append(queue, perm[i])
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, u := range c.cellAdj[v] {
			if assign[u] < 0 {
				assign[u] = assign[v]
				queue = append(queue, u)
			}
		}
	}
	// Compact region ids (a seed region may be empty only if k > n, handled
	// above; compaction also guards against unreachable seeds).
	remap := make(map[int]int)
	for _, a := range assign {
		if _, ok := remap[a]; !ok {
			remap[a] = len(remap)
		}
	}
	for i, a := range assign {
		assign[i] = remap[a]
	}
	return assign, len(remap)
}

func (c *CityMap) regionAdjacency(assign []int, k int) [][]int {
	seen := make([]map[int]bool, k)
	for i := range seen {
		seen[i] = make(map[int]bool)
	}
	for v, nbrs := range c.cellAdj {
		for _, u := range nbrs {
			a, b := assign[v], assign[u]
			if a != b {
				seen[a][b] = true
				seen[b][a] = true
			}
		}
	}
	adj := make([][]int, k)
	for i, m := range seen {
		for j := range m {
			adj[i] = append(adj[i], j)
		}
		// Map iteration order is random; neighbor order feeds the Monte
		// Carlo toroidal shifts, so it must be deterministic for p-values
		// to be reproducible across runs.
		sort.Ints(adj[i])
	}
	return adj
}

// GridSize returns the underlying grid dimensions (width, height).
func (c *CityMap) GridSize() (int, int) { return c.w, c.h }

// NumCells returns the number of land cells in the fine grid.
func (c *CityMap) NumCells() int { return len(c.cellX) }

// NumRegions returns the number of regions at an evaluation resolution.
// GPS returns the number of fine cells.
func (c *CityMap) NumRegions(r Resolution) int {
	switch r {
	case GPS:
		return len(c.cellX)
	case ZipCode:
		return c.numZip
	case Neighborhood:
		return c.numNbhd
	case City:
		return 1
	}
	return 0
}

// Locate maps a coordinate to the fine cell containing it, or -1 if the
// point is water or outside the city. Coordinates live in [0,W)x[0,H);
// NaN, infinite and out-of-range coordinates are outside.
func (c *CityMap) Locate(p Point) int {
	// Range-check the floats before converting: converting NaN, ±Inf or a
	// value beyond the int range to int is implementation-dependent.
	if !(p.X >= 0 && p.X < float64(c.w) && p.Y >= 0 && p.Y < float64(c.h)) {
		return -1
	}
	return c.cellAt[int(p.Y)*c.w+int(p.X)]
}

// RegionOfCell maps a fine cell to its region id at resolution r.
func (c *CityMap) RegionOfCell(cell int, r Resolution) int {
	if cell < 0 || cell >= len(c.cellX) {
		return -1
	}
	switch r {
	case GPS:
		return cell
	case ZipCode:
		return c.cellZip[cell]
	case Neighborhood:
		return c.cellNbhd[cell]
	case City:
		return 0
	}
	return -1
}

// RegionOf maps a point to its region id at resolution r, or -1 when the
// point lies outside the city.
func (c *CityMap) RegionOf(p Point, r Resolution) int {
	return c.RegionOfCell(c.Locate(p), r)
}

// Adjacency returns the region adjacency lists at resolution r. The city
// resolution has a single region with no neighbors. The returned slices
// must not be modified.
func (c *CityMap) Adjacency(r Resolution) [][]int {
	switch r {
	case GPS:
		return c.cellAdj
	case ZipCode:
		return c.zipAdj
	case Neighborhood:
		return c.nbhdAdj
	case City:
		return [][]int{nil}
	}
	return nil
}

// RandomPoint returns a uniformly random point inside the city (on land).
func (c *CityMap) RandomPoint(rng *rand.Rand) Point {
	id := rng.Intn(len(c.cellX))
	return Point{float64(c.cellX[id]) + rng.Float64(), float64(c.cellY[id]) + rng.Float64()}
}

// CellCenter returns the center point of a fine cell.
func (c *CityMap) CellCenter(id int) Point {
	return Point{float64(c.cellX[id]) + 0.5, float64(c.cellY[id]) + 0.5}
}
