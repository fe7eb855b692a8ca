//go:build ignore

// Command gen_pinned regenerates sweep_pinned.json, the bit-pinned
// estimator fixture read by TestEstimateSweepPinned: a fixed set of
// synthetic window series (t = 3..9 sources; unbounded, finite and
// /24-style truncation-binding limits), each run through
// Estimator.EstimateSweep twice — warm, handing every window's fit on to
// the next as Env.Estimates does, and cold, with warm = nil — with the
// math.Float64bits of N̂, the interval bounds, the selected model's IC and
// the final fit's log-likelihood recorded per window.
//
// The tables are drawn from a fixed rng seed and stored in the fixture
// next to the expected bits, so the test needs nothing but the file. The
// fixture pins the estimator's output exactly: regenerate it only for a
// deliberate numerical change, never to absorb drift.
//
//	go run gen_pinned.go        # writes ./sweep_pinned.json
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"ghosts/internal/core"
	"ghosts/internal/rng"
)

// Series is one window sequence and its pinned estimates.
type Series struct {
	Name   string    `json:"name"`
	T      int       `json:"t"`
	Limit  string    `json:"limit"` // Float64bits in hex; +Inf for unbounded
	Tables [][]int64 `json:"tables"`
	Warm   []Pinned  `json:"warm"`
	Cold   []Pinned  `json:"cold"`
}

// Pinned holds the Float64bits (hex) of one window's estimate.
type Pinned struct {
	N      string `json:"n"`
	Lo     string `json:"lo"`
	Hi     string `json:"hi"`
	IC     string `json:"ic"`
	LogLik string `json:"loglik"`
	Model  string `json:"model"`
}

func bitsHex(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// sample draws n individuals captured independently by each source, a
// heteroFrac share of them with the hot probabilities instead (latent
// heterogeneity, which makes the search add interaction terms).
func sample(r *rng.RNG, n int, probs, hot []float64, heteroFrac float64) []int64 {
	t := len(probs)
	counts := make([]int64, 1<<uint(t))
	for i := 0; i < n; i++ {
		p := probs
		if r.Float64() < heteroFrac {
			p = hot
		}
		mask := 0
		for j := 0; j < t; j++ {
			if r.Bernoulli(p[j]) {
				mask |= 1 << uint(j)
			}
		}
		if mask != 0 {
			counts[mask]++
		}
	}
	return counts
}

// windows derives adjacent windows from one base table by small count
// jitter, so consecutive windows usually select the same model and the
// warm sweep actually seeds from the previous fit.
func windows(r *rng.RNG, base []int64, k int) [][]int64 {
	out := make([][]int64, k)
	for w := range out {
		c := make([]int64, len(base))
		for s := 1; s < len(base); s++ {
			v := base[s]
			if w > 0 && v > 0 {
				v += int64(r.Intn(3)) - 1
			}
			c[s] = v
		}
		out[w] = c
	}
	return out
}

func run(est *core.Estimator, t int, tables [][]int64, warm bool) []Pinned {
	out := make([]Pinned, len(tables))
	var prev *core.FitResult
	for i, counts := range tables {
		tb := core.NewTable(t)
		copy(tb.Counts, counts)
		if !warm {
			prev = nil
		}
		res, fit, err := est.EstimateSweep(tb, prev)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gen_pinned:", err)
			os.Exit(1)
		}
		prev = fit
		name := "indep"
		if len(res.Model.Terms) > 0 {
			name = ""
			for j, h := range res.Model.Terms {
				if j > 0 {
					name += " "
				}
				name += core.TermName(h)
			}
		}
		out[i] = Pinned{
			N:      bitsHex(res.N),
			Lo:     bitsHex(res.Interval.Lo),
			Hi:     bitsHex(res.Interval.Hi),
			IC:     bitsHex(res.IC),
			LogLik: bitsHex(fit.LogLik),
			Model:  name,
		}
	}
	return out
}

func main() {
	r := rng.New(20261017)
	var all []Series
	for t := 3; t <= 9; t++ {
		probs := make([]float64, t)
		hot := make([]float64, t)
		for i := range probs {
			probs[i] = 0.08 + 0.3*r.Float64()
			hot[i] = 0.4 + 0.4*r.Float64()
		}
		big := 4000 * t
		kinds := []struct {
			name  string
			n     int
			limit float64
		}{
			{"inf", big, math.Inf(1)},
			{"finite", big, float64(2 * big)},
			{"slash24", 200, 256},
		}
		for _, k := range kinds {
			base := sample(r, k.n, probs, hot, 0.3)
			tables := windows(r, base, 3)
			est := core.DefaultEstimator(k.limit)
			all = append(all, Series{
				Name:   fmt.Sprintf("t%d-%s", t, k.name),
				T:      t,
				Limit:  bitsHex(k.limit),
				Tables: tables,
				Warm:   run(est, t, tables, true),
				Cold:   run(est, t, tables, false),
			})
		}
	}
	// One series per line keeps the file diffable without spreading every
	// count over a line of its own.
	out := []byte("[\n")
	for i, ser := range all {
		b, err := json.Marshal(ser)
		if err != nil {
			panic(err)
		}
		if i > 0 {
			out = append(out, ",\n"...)
		}
		out = append(out, b...)
	}
	out = append(out, "\n]\n"...)
	if err := os.WriteFile("sweep_pinned.json", out, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "gen_pinned:", err)
		os.Exit(1)
	}
}
