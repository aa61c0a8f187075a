// Package bitset provides fixed-stride multi-word bitsets stored in one
// flat backing array, the mask representation behind chains.Index's
// PathMasks (one bit per shared task). A table of n rows over b bits
// is a single []uint64 of n·Words(b) words; row i is the sub-slice
// [i·stride, (i+1)·stride). Keeping all rows in one allocation (rather
// than a [][]uint64) halves the pointer chasing in the pair loop and
// lets the whole table be built with one make.
//
// Every operation is allocation-free: rows are passed as slices into
// the shared backing array, and the emptiness tests return early on the
// first non-zero word. Callers with at most 64 bits should keep using a
// bare uint64 — the analysis fast path's c = 1 test does — so these
// helpers deliberately have no single-word shortcut of their own.
package bitset

// Words returns the number of 64-bit words a row of n bits occupies:
// the fixed stride of a flat table over n-bit rows. Words(0) is 0.
func Words(n int) int { return (n + 63) / 64 }

// Row returns row i of a flat table with the given word stride. The
// result aliases flat; it is a view, not a copy.
func Row(flat []uint64, stride, i int) []uint64 {
	return flat[i*stride : (i+1)*stride : (i+1)*stride]
}

// Set sets bit b of the row.
func Set(row []uint64, b int) { row[b>>6] |= 1 << (uint(b) & 63) }

// Test reports whether bit b of the row is set.
func Test(row []uint64, b int) bool { return row[b>>6]&(1<<(uint(b)&63)) != 0 }

// Or sets dst to dst | src word-wise. The rows must have equal length.
func Or(dst, src []uint64) {
	_ = dst[len(src)-1] // bounds hint
	for k := range src {
		dst[k] |= src[k]
	}
}

// And sets dst to a & b word-wise. The rows must have equal length.
func And(dst, a, b []uint64) {
	_ = dst[len(a)-1]
	_ = b[len(a)-1]
	for k := range a {
		dst[k] = a[k] & b[k]
	}
}

// AndNotAny reports whether a & b &^ c has any bit set, without
// materializing the intersection. The rows must have equal length.
func AndNotAny(a, b, c []uint64) bool {
	return AndNotAnyExcept(a, b, c, -1)
}

// AndNotAnyExcept reports whether a & b &^ c has any bit set other than
// bit exclude (exclude < 0 excludes nothing). This is the c = 1 test of
// the analysis fast path: a and b the two leaf path masks, c the LCA
// mask, exclude the shared head task.
func AndNotAnyExcept(a, b, c []uint64, exclude int) bool {
	_ = b[len(a)-1]
	_ = c[len(a)-1]
	for k := range a {
		v := a[k] & b[k] &^ c[k]
		if exclude >= 0 && k == exclude>>6 {
			v &^= 1 << (uint(exclude) & 63)
		}
		if v != 0 {
			return true
		}
	}
	return false
}
