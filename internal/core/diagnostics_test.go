package core

import (
	"context"
	"math"
	"testing"

	"ghosts/internal/rng"
	"ghosts/internal/stats"
)

func TestDependenceDetectsCorrelation(t *testing.T) {
	r := rng.New(61)
	// Sources 0 and 1 share a latent class; source 2 is neutral.
	base := []float64{0.08, 0.08, 0.35}
	hot := []float64{0.6, 0.6, 0.35}
	tb := sampleTable(r, 200000, base, hot, 0.3)
	dep := Dependence(tb)
	if dep[0][1] <= 0.2 {
		t.Fatalf("log-OR(0,1) = %v, want clearly positive", dep[0][1])
	}
	if math.Abs(dep[0][2]) > math.Abs(dep[0][1])/2 {
		t.Fatalf("log-OR(0,2) = %v should be much weaker than (0,1) = %v", dep[0][2], dep[0][1])
	}
	// Symmetry and zero diagonal.
	for i := 0; i < tb.T; i++ {
		if dep[i][i] != 0 {
			t.Fatal("diagonal must be zero")
		}
		for j := 0; j < tb.T; j++ {
			if dep[i][j] != dep[j][i] {
				t.Fatal("matrix must be symmetric")
			}
		}
	}
}

func TestDependenceIndependentNearZero(t *testing.T) {
	r := rng.New(62)
	tb := sampleTable(r, 150000, []float64{0.3, 0.25, 0.35}, nil, 0)
	dep := Dependence(tb)
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if math.Abs(dep[i][j]) > 0.1 {
				t.Errorf("log-OR(%d,%d) = %v, want ≈0 for independent sources", i, j, dep[i][j])
			}
		}
	}
}

func TestGoodnessOfFit(t *testing.T) {
	r := rng.New(63)
	// Data generated with dependence: the independence model must fit
	// poorly, the model with the right interaction much better.
	base := []float64{0.08, 0.08, 0.3, 0.25}
	hot := []float64{0.55, 0.55, 0.3, 0.25}
	tb := sampleTable(r, 250000, base, hot, 0.3)

	indep, err := FitModel(tb, IndependenceModel(4), math.Inf(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	gofIndep := GoodnessOfFit(tb, indep)
	dep, err := FitModel(tb, IndependenceModel(4).With(0b0011), math.Inf(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	gofDep := GoodnessOfFit(tb, dep)

	if gofDep.Deviance >= gofIndep.Deviance {
		t.Fatalf("adding the true interaction must reduce deviance: %v -> %v",
			gofIndep.Deviance, gofDep.Deviance)
	}
	if gofIndep.PValue > 1e-6 {
		t.Fatalf("independence model should be rejected, p = %v", gofIndep.PValue)
	}
	if gofIndep.DF != 15-5 || gofDep.DF != 15-6 {
		t.Fatalf("df = %d, %d", gofIndep.DF, gofDep.DF)
	}
	if gofDep.Pearson <= 0 || gofIndep.Pearson <= gofDep.Pearson {
		t.Fatalf("Pearson: %v vs %v", gofIndep.Pearson, gofDep.Pearson)
	}
}

func TestGoodnessOfFitPerfect(t *testing.T) {
	// Exact expected counts under independence: deviance ≈ 0, p ≈ 1.
	tb := expectedTable(1e6, []float64{0.3, 0.4, 0.2})
	fit, err := FitModel(tb, IndependenceModel(3), math.Inf(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	g := GoodnessOfFit(tb, fit)
	if g.Deviance > 1 {
		t.Fatalf("deviance %v on exact data", g.Deviance)
	}
	if g.PValue < 0.99 {
		t.Fatalf("p-value %v on exact data", g.PValue)
	}
}

// designRows materialises the model's design over the observable histories
// 1..2^t−1: column 0 the intercept, columns 1..t the main effects, then
// one column per interaction, x[s][j] = 1 iff term j's source set ⊆ s.
func designRows(m Model) [][]float64 {
	rows := make([][]float64, 1<<uint(m.T)-1)
	for s := 1; s < 1<<uint(m.T); s++ {
		row := make([]float64, m.NumParams())
		row[0] = 1
		for i := 0; i < m.T; i++ {
			if s&(1<<uint(i)) != 0 {
				row[1+i] = 1
			}
		}
		for j, h := range m.Terms {
			if s&h == h {
				row[1+m.T+j] = 1
			}
		}
		rows[s-1] = row
	}
	return rows
}

// goodnessOfFitRows is GoodnessOfFit over a materialised design: η is the
// dot product of the cell's design row with the coefficients.
func goodnessOfFitRows(tb *Table, fit *FitResult) GOF {
	x := designRows(fit.Model)
	g := GOF{DF: len(x) - fit.Model.NumParams()}
	for s := 1; s < len(tb.Counts); s++ {
		z := float64(tb.Counts[s])
		eta := 0.0
		for j, v := range x[s-1] {
			eta += v * fit.Coef[j]
		}
		if eta > 30 {
			eta = 30
		}
		mu := math.Exp(eta)
		if mu < 1e-12 {
			mu = 1e-12
		}
		if z > 0 {
			g.Deviance += 2 * (z*math.Log(z/mu) - (z - mu))
		} else {
			g.Deviance += 2 * mu
		}
		g.Pearson += (z - mu) * (z - mu) / mu
	}
	if g.DF > 0 {
		g.PValue = 1 - stats.ChiSquareCDF(float64(g.DF), g.Deviance)
	} else {
		g.PValue = 1
	}
	return g
}

// TestGoodnessOfFitMatchesDesignRows holds GoodnessOfFit, which sums the
// coefficients of the columns whose mask ⊆ s, to the design-row dot product
// bit for bit: the same terms are added in the same column order. Fits
// cover t = 2..9, the independence model and the selected model, plain and
// truncated, on dependent and sparse tables.
func TestGoodnessOfFitMatchesDesignRows(t *testing.T) {
	r := rng.New(64)
	checked := 0
	for tt := 2; tt <= 9; tt++ {
		base := make([]float64, tt)
		hot := make([]float64, tt)
		for i := range base {
			base[i] = 0.05 + 0.3*r.Float64()
			hot[i] = base[i]
		}
		hot[0], hot[1] = 0.6, 0.6
		for _, n := range []int{400, 60000} {
			tb := sampleTable(r, n, base, hot, 0.3)
			for _, limit := range []float64{math.Inf(1), float64(n)} {
				opt := SelectionOptions{IC: AIC, Divisor: Fixed1, Limit: limit}
				sel, _, err := SelectModelCtx(context.Background(), tb, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range []Model{IndependenceModel(tt), sel} {
					fit, err := FitModel(tb, m, limit, 1)
					if err != nil {
						t.Fatal(err)
					}
					got, want := GoodnessOfFit(tb, fit), goodnessOfFitRows(tb, fit)
					if got.DF != want.DF ||
						math.Float64bits(got.Deviance) != math.Float64bits(want.Deviance) ||
						math.Float64bits(got.Pearson) != math.Float64bits(want.Pearson) ||
						math.Float64bits(got.PValue) != math.Float64bits(want.PValue) {
						t.Fatalf("t=%d n=%d limit=%v model %v: GoodnessOfFit %+v, design rows %+v",
							tt, n, limit, m.Terms, got, want)
					}
					checked++
				}
			}
		}
	}
	if checked != 8*2*2*2 {
		t.Fatalf("checked %d fits", checked)
	}
}
