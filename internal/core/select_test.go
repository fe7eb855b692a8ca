package core

import (
	"context"
	"math"
	"testing"

	"ghosts/internal/rng"
)

func TestDivisorModes(t *testing.T) {
	tb := NewTable(2)
	tb.Counts[1] = 500
	tb.Counts[2] = 900
	tb.Counts[3] = 120
	if d := Fixed1.divisor(tb); d != 1 {
		t.Errorf("Fixed1 = %v", d)
	}
	if d := Fixed100.divisor(tb); d != 100 {
		t.Errorf("Fixed100 = %v", d)
	}
	// Adaptive: start 1000, halve until < min positive (120): 1000→500→250→125→62.
	if d := Adaptive1000.divisor(tb); d != 62 {
		t.Errorf("Adaptive1000 = %v, want 62", d)
	}
	// Min positive of 1 forces divisor 1.
	tb.Counts[3] = 1
	if d := Adaptive1000.divisor(tb); d != 1 {
		t.Errorf("Adaptive with min 1 = %v, want 1", d)
	}
}

func TestSelectIndependenceForIndependentData(t *testing.T) {
	r := rng.New(11)
	tb := sampleTable(r, 100000, []float64{0.3, 0.4, 0.25}, nil, 0)
	for _, ic := range []IC{AIC, BIC} {
		m, _, err := SelectModelCtx(context.Background(), tb, SelectionOptions{IC: ic, Divisor: Adaptive1000, Limit: math.Inf(1)})
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Terms) > 1 {
			t.Errorf("%v selected %d interactions for independent data, want ≤1", ic, len(m.Terms))
		}
	}
}

func TestSelectFindsStrongDependence(t *testing.T) {
	r := rng.New(21)
	// Strong dependence between sources 1 and 2 only.
	base := []float64{0.05, 0.05, 0.4, 0.3}
	hot := []float64{0.7, 0.7, 0.4, 0.3}
	tb := sampleTable(r, 300000, base, hot, 0.35)
	m, _, err := SelectModelCtx(context.Background(), tb, SelectionOptions{IC: AIC, Divisor: Fixed1, Limit: math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Has(0b0011) {
		t.Errorf("selection should include u{1,2}; got %v", m.Terms)
	}
}

func TestSelectDivisorSimplifies(t *testing.T) {
	// A large divisor deflates the likelihood, so the selected model should
	// never be more complex than with divisor 1 (§3.3.2's motivation).
	r := rng.New(31)
	base := []float64{0.1, 0.12, 0.3, 0.25}
	hot := []float64{0.35, 0.4, 0.32, 0.27}
	tb := sampleTable(r, 150000, base, hot, 0.3)
	m1, _, err := SelectModelCtx(context.Background(), tb, SelectionOptions{IC: AIC, Divisor: Fixed1, Limit: math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	m1000, _, err := SelectModelCtx(context.Background(), tb, SelectionOptions{IC: AIC, Divisor: Fixed1000, Limit: math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(m1000.Terms) > len(m1.Terms) {
		t.Errorf("divisor 1000 model (%d terms) more complex than divisor 1 (%d terms)",
			len(m1000.Terms), len(m1.Terms))
	}
}

func TestSelectRespectsMaxTerms(t *testing.T) {
	r := rng.New(41)
	base := []float64{0.05, 0.05, 0.05, 0.05}
	hot := []float64{0.6, 0.6, 0.6, 0.6}
	tb := sampleTable(r, 200000, base, hot, 0.4)
	m, _, err := SelectModelCtx(context.Background(), tb, SelectionOptions{IC: AIC, Divisor: Fixed1, Limit: math.Inf(1), MaxTerms: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Terms) > 2 {
		t.Fatalf("MaxTerms violated: %v", m.Terms)
	}
}

func TestSelectMaxOrderLimitsTerms(t *testing.T) {
	r := rng.New(51)
	base := []float64{0.05, 0.05, 0.05, 0.3}
	hot := []float64{0.6, 0.6, 0.6, 0.3}
	tb := sampleTable(r, 200000, base, hot, 0.4)
	m, _, err := SelectModelCtx(context.Background(), tb, SelectionOptions{IC: AIC, Divisor: Fixed1, Limit: math.Inf(1), MaxOrder: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range m.Terms {
		if popcount(h) > 2 {
			t.Fatalf("order-3 term selected despite MaxOrder=2: %v", m.Terms)
		}
	}
}

func popcount(v int) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}

func TestICString(t *testing.T) {
	if AIC.String() != "AIC" || BIC.String() != "BIC" {
		t.Fatal("IC String broken")
	}
}
