package wavelet

import (
	"math"
)

// The 2D extension (Section 2.1 / "Multi-dimensional wavelets"): a standard
// 2D Haar transform applies the 1D transform to every row of the u×u
// frequency array, then to every column of the result. That equals the
// tensor-product orthonormal basis Ψ_{i,j}(x,y) = ψ_i(x)·ψ_j(y), so 2D
// coefficients remain linear in v and all the paper's distributed
// machinery (local-coefficient summation, H-WTopk, sampling estimators)
// carries over unchanged.

// Transform2D computes the full 2D coefficient array W[i][j] = <v, ψ_i⊗ψ_j>
// of the dense u×u signal. Rows first, then columns, as the paper states.
func Transform2D(v [][]float64) [][]float64 {
	u := int64(len(v))
	if !IsPowerOfTwo(u) {
		panic("wavelet: 2D domain must be a power of two")
	}
	// Row pass.
	a := make([][]float64, u)
	for x := int64(0); x < u; x++ {
		if int64(len(v[x])) != u {
			panic("wavelet: 2D signal must be square")
		}
		a[x] = Transform(v[x])
	}
	// Column pass.
	col := make([]float64, u)
	w := make([][]float64, u)
	for i := range w {
		w[i] = make([]float64, u)
	}
	for j := int64(0); j < u; j++ {
		for x := int64(0); x < u; x++ {
			col[x] = a[x][j]
		}
		tc := Transform(col)
		for i := int64(0); i < u; i++ {
			w[i][j] = tc[i]
		}
	}
	return w
}

// Inverse2D inverts Transform2D.
func Inverse2D(w [][]float64) [][]float64 {
	u := int64(len(w))
	if !IsPowerOfTwo(u) {
		panic("wavelet: 2D domain must be a power of two")
	}
	// Invert columns first (reverse order of application).
	a := make([][]float64, u)
	for i := range a {
		a[i] = make([]float64, u)
	}
	col := make([]float64, u)
	for j := int64(0); j < u; j++ {
		for i := int64(0); i < u; i++ {
			col[i] = w[i][j]
		}
		ic := Inverse(col)
		for x := int64(0); x < u; x++ {
			a[x][j] = ic[x]
		}
	}
	v := make([][]float64, u)
	for x := int64(0); x < u; x++ {
		v[x] = Inverse(a[x])
	}
	return v
}

// Key2D packs a 2D key (x, y) ∈ [0,u)² into a single int64 x·u + y, the
// representation datasets and algorithms use for 2D domains.
func Key2D(x, y, u int64) int64 { return x*u + y }

// SplitKey2D unpacks a packed 2D key.
func SplitKey2D(key, u int64) (x, y int64) { return key / u, key % u }

// SparseTransform2DSorted computes the non-zero 2D coefficients of cells
// aggregated into sorted packed keys with their counts. Each cell
// contributes to (log2(u)+1)² coefficients — its tensor path. Output is
// keyed by packed (i, j). Cells are consumed in key order so the
// floating-point accumulation — and therefore every coefficient's exact
// bit pattern — is fixed, which the distributed engine's bit-identical
// parity (and replay after worker loss) relies on.
func SparseTransform2DSorted(keys []int64, counts []float64, u int64) map[int64]float64 {
	logu := Log2(u)
	type pathEntry struct {
		idx int64
		val float64
	}
	path := make([]pathEntry, 0, logu+1)
	w := make(map[int64]float64)
	for i, key := range keys {
		c := counts[i]
		if c == 0 {
			continue
		}
		x, y := SplitKey2D(key, u)
		if x < 0 || x >= u || y < 0 || y >= u {
			panic("wavelet: 2D key out of domain")
		}
		// ψ path for x.
		path = path[:0]
		path = append(path, pathEntry{0, 1 / math.Sqrt(float64(u))})
		for j := uint(0); j < logu; j++ {
			rangeLen := u >> j
			k := x / rangeLen
			val := 1 / math.Sqrt(float64(rangeLen))
			if x-k*rangeLen < rangeLen/2 {
				val = -val
			}
			path = append(path, pathEntry{int64(1)<<j + k, val})
		}
		// ψ path for y, combined on the fly.
		for _, px := range path {
			base := px.idx * u
			contrib0 := c * px.val
			// y's average coefficient.
			add2d(w, base+0, contrib0/math.Sqrt(float64(u)))
			for j := uint(0); j < logu; j++ {
				rangeLen := u >> j
				k := y / rangeLen
				val := 1 / math.Sqrt(float64(rangeLen))
				if y-k*rangeLen < rangeLen/2 {
					val = -val
				}
				add2d(w, base+int64(1)<<j+k, contrib0*val)
			}
		}
	}
	return w
}

func add2d(w map[int64]float64, idx int64, v float64) {
	nv := w[idx] + v
	if nv == 0 {
		delete(w, idx)
	} else {
		w[idx] = nv
	}
}

// Basis2DAt evaluates Ψ_{i,j}(x, y) = ψ_i(x)·ψ_j(y) for a packed
// coefficient index over [0,u)².
func Basis2DAt(packed, x, y, u int64) float64 {
	i, j := SplitKey2D(packed, u)
	return BasisAt(i, x, u) * BasisAt(j, y, u)
}

// Representation2D is a k-term 2D wavelet representation with packed
// coefficient indices and an error-tree index for O(log²u) point queries.
type Representation2D struct {
	U     int64
	Coefs []Coef

	// tree indexes Coefs by packed error-tree position (see errTree2D);
	// nil only for hand-rolled literals, which fall back to the scan.
	tree *errTree2D
}

// NewRepresentation2D wraps and magnitude-sorts a 2D coefficient set,
// building its error-tree query index.
func NewRepresentation2D(u int64, coefs []Coef) *Representation2D {
	if !IsPowerOfTwo(u) {
		panic("wavelet: representation domain must be a power of two")
	}
	cs := make([]Coef, len(coefs))
	copy(cs, coefs)
	SortCoefsByMagnitude(cs)
	return &Representation2D{U: u, Coefs: cs, tree: newErrTree2D(u, cs)}
}

// PointEstimate returns v̂(x, y), evaluating only the (log2(u)+1)²
// ancestor pairs of the cell via the index — O(log²u) instead of O(k),
// bit-identical to ScanPointEstimate. Off-grid cells estimate 0.
func (r *Representation2D) PointEstimate(x, y int64) float64 {
	if r.tree == nil {
		return r.ScanPointEstimate(x, y)
	}
	return r.tree.pointEstimate(r.Coefs, x, y)
}

// ScanPointEstimate is the O(k) linear-scan reference evaluation of
// v̂(x, y), retained for equivalence tests and benchmarks.
func (r *Representation2D) ScanPointEstimate(x, y int64) float64 {
	var s float64
	for _, c := range r.Coefs {
		s += c.Value * Basis2DAt(c.Index, x, y, r.U)
	}
	return s
}

// RangeSum returns Σ_{x=xlo..xhi, y=ylo..yhi} v̂(x, y), evaluating only
// the tensor products of the two axes' boundary candidates via the index
// — O(log²u) instead of O(k), bit-identical to ScanRangeSum. Bounds are
// clamped to the grid per axis; an empty intersection returns 0.
func (r *Representation2D) RangeSum(xlo, xhi, ylo, yhi int64) float64 {
	if r.tree == nil {
		return r.ScanRangeSum(xlo, xhi, ylo, yhi)
	}
	return r.tree.rangeSum(r.Coefs, xlo, xhi, ylo, yhi)
}

// ScanRangeSum is the O(k) linear-scan reference evaluation of RangeSum,
// with the same per-axis clamp contract: Σ_c w_c · (Σψ_i over the x
// range) · (Σψ_j over the y range).
func (r *Representation2D) ScanRangeSum(xlo, xhi, ylo, yhi int64) float64 {
	if xlo < 0 {
		xlo = 0
	}
	if xhi >= r.U {
		xhi = r.U - 1
	}
	if ylo < 0 {
		ylo = 0
	}
	if yhi >= r.U {
		yhi = r.U - 1
	}
	if xlo > xhi || ylo > yhi {
		return 0
	}
	var s float64
	for _, c := range r.Coefs {
		i, j := SplitKey2D(c.Index, r.U)
		s += c.Value * (basisRangeSum(i, xlo, xhi, r.U) * basisRangeSum(j, ylo, yhi, r.U))
	}
	return s
}

// Reconstruct materializes the dense u×u estimate. O(k·u²) worst case;
// intended for the small domains of tests and examples.
func (r *Representation2D) Reconstruct() [][]float64 {
	v := make([][]float64, r.U)
	for x := range v {
		v[x] = make([]float64, r.U)
	}
	for _, c := range r.Coefs {
		i, j := SplitKey2D(c.Index, r.U)
		for x := int64(0); x < r.U; x++ {
			bx := BasisAt(i, x, r.U)
			if bx == 0 {
				continue
			}
			row := v[x]
			for y := int64(0); y < r.U; y++ {
				by := BasisAt(j, y, r.U)
				if by != 0 {
					row[y] += c.Value * bx * by
				}
			}
		}
	}
	return v
}

// SSE2D returns Σ (a-b)² over two dense u×u arrays.
func SSE2D(a, b [][]float64) float64 {
	if len(a) != len(b) {
		panic("wavelet: SSE2D dimension mismatch")
	}
	var s float64
	for i := range a {
		s += SSE(a[i], b[i])
	}
	return s
}
