package stats

import (
	"errors"
	"math"
)

// ErrSingular is returned when a linear system has no usable solution.
var ErrSingular = errors.New("stats: singular matrix")

// Solve solves the dense linear system A x = b by Gaussian elimination with
// partial pivoting. A and b are not modified. It returns ErrSingular when a
// pivot falls below a conservative tolerance.
func Solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, errors.New("stats: dimension mismatch")
	}
	// Copy into an augmented working matrix.
	m := make([][]float64, n)
	for i := range m {
		if len(a[i]) != n {
			return nil, errors.New("stats: non-square matrix")
		}
		m[i] = make([]float64, n+1)
		copy(m[i], a[i])
		m[i][n] = b[i]
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		best := math.Abs(m[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m[r][col]); v > best {
				best, piv = v, r
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		m[col], m[piv] = m[piv], m[col]
		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := m[i][n]
		for j := i + 1; j < n; j++ {
			s -= m[i][j] * x[j]
		}
		x[i] = s / m[i][i]
	}
	return x, nil
}

// solveSPDFlat solves A x = b for a symmetric positive-definite A via
// Cholesky decomposition over flat row-major storage with caller-supplied
// scratch: a is the n×n system (len n*n, unmodified), x receives the
// solution, and l (len n*n) holds the Cholesky factor. When A is not
// numerically SPD it retries with a small ridge on the diagonal and finally
// falls back to Solve. Fisher-scoring normal equations XᵀWX u = Xᵀr are SPD
// whenever the design has full rank. Nothing is allocated on the SPD fast
// path, so the Fisher-scoring loop can call it every iteration; the non-SPD
// fallback to Solve is rare and may allocate.
func solveSPDFlat(a []float64, n int, b, x, l []float64) error {
	if n == 0 || len(a) < n*n || len(b) != n || len(x) < n || len(l) < n*n {
		return errors.New("stats: dimension mismatch")
	}
	for _, ridge := range []float64{0, 1e-10, 1e-7, 1e-4} {
		if !choleskyFlat(a, n, ridge, l) {
			continue
		}
		// Solve L y = b into x, then Lᵀ x = y in place.
		for i := 0; i < n; i++ {
			s := b[i]
			li := l[i*n:]
			for j := 0; j < i; j++ {
				s -= li[j] * x[j]
			}
			x[i] = s / li[i]
		}
		for i := n - 1; i >= 0; i-- {
			s := x[i]
			for j := i + 1; j < n; j++ {
				s -= l[j*n+i] * x[j]
			}
			x[i] = s / l[i*n+i]
		}
		return nil
	}
	// Fall back to pivoted Gaussian elimination on a row-view copy.
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = a[i*n : (i+1)*n]
	}
	sol, err := Solve(rows, b)
	if err != nil {
		return err
	}
	copy(x, sol)
	return nil
}

// choleskyFlat factors a + ridge·I into the lower-triangular l (both flat
// row-major n×n), reporting failure when a diagonal pivot is non-positive.
func choleskyFlat(a []float64, n int, ridge float64, l []float64) bool {
	for i := 0; i < n; i++ {
		li := l[i*n:]
		for j := 0; j <= i; j++ {
			s := a[i*n+j]
			if i == j {
				s += ridge
			}
			lj := l[j*n:]
			for k := 0; k < j; k++ {
				s -= li[k] * lj[k]
			}
			if i == j {
				if s <= 0 || math.IsNaN(s) {
					return false
				}
				li[j] = math.Sqrt(s)
			} else {
				li[j] = s / lj[j]
			}
		}
		for j := i + 1; j < n; j++ {
			li[j] = 0
		}
	}
	return true
}
