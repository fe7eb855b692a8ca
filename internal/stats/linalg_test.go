package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSolveKnown(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "x[0]", x[0], 1, 1e-12)
	approx(t, "x[1]", x[1], 3, 1e-12)
}

func TestSolveSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("Solve of singular matrix should fail")
	}
}

func TestSolveDimensionErrors(t *testing.T) {
	if _, err := Solve(nil, nil); err == nil {
		t.Fatal("empty system should fail")
	}
	if _, err := Solve([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Fatal("non-square system should fail")
	}
	if _, err := Solve([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched rhs should fail")
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero leading pivot forces a row swap.
	a := [][]float64{{0, 1}, {1, 0}}
	x, err := Solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "x[0]", x[0], 3, 1e-12)
	approx(t, "x[1]", x[1], 2, 1e-12)
}

func TestSolveSPDMatchesSolve(t *testing.T) {
	a := [][]float64{{4, 1, 0}, {1, 3, 1}, {0, 1, 5}}
	b := []float64{1, 2, 3}
	x1, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := solveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		approx(t, "x", x2[i], x1[i], 1e-9)
	}
}

// Property: for random SPD systems built as A = MᵀM + I, Solve and the
// Cholesky solver both recover x with A x = b.
func TestSolveResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := newTestRand(seed)
		n := 2 + int(uint64(seed)%5)
		m := make([][]float64, n)
		for i := range m {
			m[i] = make([]float64, n)
			for j := range m[i] {
				m[i][j] = r()
			}
		}
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				s := 0.0
				for k := 0; k < n; k++ {
					s += m[k][i] * m[k][j]
				}
				a[i][j] = s
				if i == j {
					a[i][j]++
				}
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r()
		}
		for _, solver := range []func([][]float64, []float64) ([]float64, error){Solve, solveSPD} {
			x, err := solver(a, b)
			if err != nil {
				return false
			}
			for i, row := range a {
				res := 0.0
				for j, v := range row {
					res += v * x[j]
				}
				if math.Abs(res-b[i]) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// newTestRand returns a tiny deterministic float generator in [-1, 1).
func newTestRand(seed int64) func() float64 {
	s := uint64(seed)*2654435761 + 1
	return func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(int64(s%2000)-1000) / 1000
	}
}

// solveSPD runs the kernel's flat Cholesky solver on a [][]float64 system.
func solveSPD(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	flat := make([]float64, 0, n*n)
	for _, row := range a {
		flat = append(flat, row...)
	}
	x := make([]float64, n)
	if err := solveSPDFlat(flat, n, b, x, make([]float64, n*n)); err != nil {
		return nil, err
	}
	return x, nil
}
