package cluster

import "math"

// This file holds the flat-memory spatial index shared by DBSCAN and the
// nearest-neighbour search. Points live in one strided []float64 (point i
// occupies x[i*dims:(i+1)*dims]) and cells are addressed by an exact
// packed int64 key, so a neighbourhood query allocates nothing: no string
// key per cell, no boxed coordinate slice per point, no per-query []int.
//
// The historical index keyed cells by a string of the low 32 bits of each
// cell coordinate, which (a) allocated on every single cell lookup and
// (b) silently collided cells whose coordinates differ by a multiple of
// 2^32 — reachable with a tiny eps against large coordinate values. The
// packed key is exact: cell coordinates are clamped to ±2^62 (far beyond
// any coordinate float64 arithmetic can resolve at unit scale) and packed
// via mixed-radix strides over the populated coordinate spans, falling
// back to a full 8-bytes-per-dimension encoding when the spans are too
// vast to pack into 63 bits.

// maxStackDims bounds the dimensionality for which query scratch lives on
// the stack; higher-dimensional queries fall back to heap scratch.
const maxStackDims = 16

// maxCellCoord clamps cell coordinates. Clamping cannot change results:
// every cell candidate is distance-verified, and an index spread wide
// enough to clamp always exceeds the ring-sweep bound, which routes
// nearest-neighbour queries to the exact linear scan.
const maxCellCoord = int64(1) << 62

// cellCoord quantises one coordinate to its cell index.
func cellCoord(v, eps float64) int64 {
	f := math.Floor(v / eps)
	if !(f > -(1 << 62)) { // also catches NaN
		return -maxCellCoord
	}
	if f >= 1<<62 {
		return maxCellCoord
	}
	return int64(f)
}

// gridIndex buckets the points of a flat strided point set into cells of
// side eps. Per-cell point indices are stored contiguously (CSR layout) in
// ascending order, matching the insertion order of the historical
// map-of-slices index.
type gridIndex struct {
	eps  float64
	dims int
	n    int
	x    []float64 // strided point storage, len n*dims

	// cellMin/cellMax bound the populated cell coordinates per dimension;
	// queries outside the box skip the lookup, and the NN ring search uses
	// them to cap its sweep.
	cellMin, cellMax []int64

	// Packed addressing: key = Σ (c[d]-cellMin[d])·stride[d], exact
	// whenever the populated spans fit 63 bits. stride == nil selects the
	// exact wide fallback keyed by the full 8-byte coordinate encoding.
	// When the packed key space is small (the usual case for normalised
	// data), dense maps keys straight to slots with no hashing at all.
	stride []int64
	dense  []int32 // keyed by packed key, -1 = empty cell
	slots  map[int64]int32
	wide   map[string]int32

	// CSR buckets: bucket s holds idx[start[s]:start[s+1]], ascending.
	start []int32
	idx   []int32
}

// newGridIndex adapts the historical [][]float64 constructor.
func newGridIndex(points [][]float64, eps float64) *gridIndex {
	x, dims := flatten(points)
	return newGridIndexFlat(x, dims, eps)
}

// flatten copies a boxed point set into strided storage.
func flatten(points [][]float64) ([]float64, int) {
	if len(points) == 0 {
		return nil, 0
	}
	dims := len(points[0])
	x := make([]float64, 0, len(points)*dims)
	for _, p := range points {
		x = append(x, p...)
	}
	return x, dims
}

func newGridIndexFlat(x []float64, dims int, eps float64) *gridIndex {
	g := &gridIndex{eps: eps, dims: dims, x: x}
	if dims > 0 {
		g.n = len(x) / dims
	}
	g.cellMin = make([]int64, dims)
	g.cellMax = make([]int64, dims)
	if g.n == 0 {
		return g
	}
	coords := make([]int64, g.n*dims)
	for i := 0; i < g.n; i++ {
		for d := 0; d < dims; d++ {
			c := cellCoord(x[i*dims+d], eps)
			coords[i*dims+d] = c
			if i == 0 || c < g.cellMin[d] {
				g.cellMin[d] = c
			}
			if i == 0 || c > g.cellMax[d] {
				g.cellMax[d] = c
			}
		}
	}
	// Mixed-radix strides over the populated spans, with overflow checks;
	// any overflow selects the exact wide encoding instead.
	stride := make([]int64, dims)
	prod := int64(1)
	packed := true
	for d := 0; d < dims; d++ {
		span := g.cellMax[d] - g.cellMin[d] + 1
		if span <= 0 || prod > (int64(1)<<62)/span {
			packed = false
			break
		}
		stride[d] = prod
		prod *= span
	}
	// Assign bucket slots in first-seen order and bucket the points.
	slotOf := make([]int32, g.n)
	var counts []int32
	if packed {
		g.stride = stride
		// Dense slot table when the packed key space is modest relative
		// to the point count (always true for normalised unit-cube data);
		// otherwise hash. The 1<<22 cap bounds the table at 16 MiB.
		const denseCap = int64(1) << 22
		if prod <= denseCap && prod <= 64*int64(g.n)+1024 {
			g.dense = make([]int32, prod)
			for k := range g.dense {
				g.dense[k] = -1
			}
		} else {
			g.slots = make(map[int64]int32, g.n/2+1)
		}
		for i := 0; i < g.n; i++ {
			key := int64(0)
			for d := 0; d < dims; d++ {
				key += (coords[i*dims+d] - g.cellMin[d]) * stride[d]
			}
			var s int32
			var ok bool
			if g.dense != nil {
				s = g.dense[key]
				ok = s >= 0
			} else {
				s, ok = g.slots[key]
			}
			if !ok {
				s = int32(len(counts))
				if g.dense != nil {
					g.dense[key] = s
				} else {
					g.slots[key] = s
				}
				counts = append(counts, 0)
			}
			counts[s]++
			slotOf[i] = s
		}
	} else {
		g.wide = make(map[string]int32, g.n/2+1)
		buf := make([]byte, dims*8)
		for i := 0; i < g.n; i++ {
			encodeWide(buf, coords[i*dims:(i+1)*dims])
			s, ok := g.wide[string(buf)]
			if !ok {
				s = int32(len(counts))
				g.wide[string(buf)] = s
				counts = append(counts, 0)
			}
			counts[s]++
			slotOf[i] = s
		}
	}
	g.start = make([]int32, len(counts)+1)
	for s, c := range counts {
		g.start[s+1] = g.start[s] + c
	}
	g.idx = make([]int32, g.n)
	cursor := append([]int32(nil), g.start[:len(counts)]...)
	for i := 0; i < g.n; i++ {
		s := slotOf[i]
		g.idx[cursor[s]] = int32(i)
		cursor[s]++
	}
	return g
}

// encodeWide writes the exact big-endian encoding of a cell coordinate
// vector (8 bytes per dimension) into buf.
func encodeWide(buf []byte, c []int64) {
	for d, v := range c {
		u := uint64(v)
		for b := 0; b < 8; b++ {
			buf[d*8+b] = byte(u >> (56 - 8*b))
		}
	}
}

// slot returns the bucket slot of cell c, or -1 when the cell is empty.
// The scratch byte buffer is only touched in wide mode.
func (g *gridIndex) slot(c []int64, wideBuf []byte) int32 {
	for d, v := range c {
		if v < g.cellMin[d] || v > g.cellMax[d] {
			return -1
		}
	}
	var s int32
	var ok bool
	if g.stride != nil {
		key := int64(0)
		for d, v := range c {
			key += (v - g.cellMin[d]) * g.stride[d]
		}
		if g.dense != nil {
			s = g.dense[key]
			ok = s >= 0
		} else {
			s, ok = g.slots[key]
		}
	} else {
		encodeWide(wideBuf, c)
		s, ok = g.wide[string(wideBuf)]
	}
	if !ok {
		return -1
	}
	return s
}

// bucket returns the indices of the points in cell c, or nil.
func (g *gridIndex) bucket(c []int64, wideBuf []byte) []int32 {
	s := g.slot(c, wideBuf)
	if s < 0 {
		return nil
	}
	return g.idx[g.start[s]:g.start[s+1]]
}

// point returns the strided storage row of point i.
func (g *gridIndex) point(i int32) []float64 {
	return g.x[int(i)*g.dims : (int(i)+1)*g.dims]
}

// sqDistTo returns the squared distance from indexed point i to q, with
// the same per-dimension accumulation order as sqDist. Kept small enough
// to inline; the 2-D hot paths in visitRing and appendNear carry their own
// unrolled copies with identical (left-associated) accumulation.
func (g *gridIndex) sqDistTo(i int32, q []float64) float64 {
	base := int(i) * g.dims
	var s float64
	for d := 0; d < g.dims; d++ {
		dd := g.x[base+d] - q[d]
		s += dd * dd
	}
	return s
}

// queryScratch holds the per-call coordinate and key scratch of a grid
// query; for dims <= maxStackDims it lives entirely on the caller's stack.
type queryScratch struct {
	base [maxStackDims]int64
	cell [maxStackDims]int64
	off  [maxStackDims]int64
	lo   [maxStackDims]int64
	hi   [maxStackDims]int64
	wide [maxStackDims * 8]byte
}

func scratchInts(buf *[maxStackDims]int64, dims int) []int64 {
	if dims <= maxStackDims {
		return buf[:dims]
	}
	return make([]int64, dims)
}

func (g *gridIndex) wideBuf(sc *queryScratch) []byte {
	if g.wide == nil {
		return nil
	}
	if g.dims <= maxStackDims {
		return sc.wide[:g.dims*8]
	}
	return make([]byte, g.dims*8)
}

// neighbors appends to out[:0] the indices of all points within eps of q
// (including q itself when indexed) and returns it. Steady state it
// allocates nothing: pass the previous return value back in as out.
func (g *gridIndex) neighbors(q []float64, out []int) []int {
	out = out[:0]
	if g.n == 0 {
		return out
	}
	var sc queryScratch
	base := scratchInts(&sc.base, g.dims)
	cell := scratchInts(&sc.cell, g.dims)
	off := scratchInts(&sc.off, g.dims)
	wbuf := g.wideBuf(&sc)
	for d := 0; d < g.dims; d++ {
		base[d] = cellCoord(q[d], g.eps)
		off[d] = -1
	}
	// Enumerate the 3^dims adjacent cells (same odometer order as the
	// historical index; absent cells contribute nothing).
	for {
		for d := 0; d < g.dims; d++ {
			cell[d] = base[d] + off[d]
		}
		out = g.appendNear(q, g.bucket(cell, wbuf), out)
		if !nextOffset(off) {
			break
		}
	}
	return out
}

// cellSlots appends to out[:0] the slots of the populated cells among the
// 3^dims cells around q, in the order neighbors visits them.
func (g *gridIndex) cellSlots(q []float64, out []int32) []int32 {
	out = out[:0]
	if g.n == 0 {
		return out
	}
	var sc queryScratch
	base := scratchInts(&sc.base, g.dims)
	cell := scratchInts(&sc.cell, g.dims)
	off := scratchInts(&sc.off, g.dims)
	wbuf := g.wideBuf(&sc)
	for d := 0; d < g.dims; d++ {
		base[d] = cellCoord(q[d], g.eps)
		off[d] = -1
	}
	for {
		for d := 0; d < g.dims; d++ {
			cell[d] = base[d] + off[d]
		}
		if s := g.slot(cell, wbuf); s >= 0 {
			out = append(out, s)
		}
		if !nextOffset(off) {
			break
		}
	}
	return out
}

// nextOffset advances the odometer of per-dimension cell offsets in
// {-1, 0, 1}, lowest dimension first; false means it has wrapped.
func nextOffset(off []int64) bool {
	for d := range off {
		off[d]++
		if off[d] <= 1 {
			return true
		}
		off[d] = -1
	}
	return false
}

// appendNear appends the points of bucket within eps of q to out.
func (g *gridIndex) appendNear(q []float64, bucket []int32, out []int) []int {
	eps2 := g.eps * g.eps
	if g.dims == 2 {
		// Unrolled 2-D candidate scan: same left-associated accumulation
		// as sqDistTo, no per-candidate call.
		q0, q1 := q[0], q[1]
		for _, pi := range bucket {
			b := int(pi) * 2
			d0 := g.x[b] - q0
			d1 := g.x[b+1] - q1
			if d0*d0+d1*d1 <= eps2 {
				out = append(out, int(pi))
			}
		}
		return out
	}
	for _, pi := range bucket {
		if g.sqDistTo(pi, q) <= eps2 {
			out = append(out, int(pi))
		}
	}
	return out
}
