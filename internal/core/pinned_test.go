package core

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"
)

// pinnedSeries mirrors one entry of testdata/sweep_pinned.json (written by
// testdata/gen_pinned.go): a window series, its limit, and the
// Float64bits of every window's estimate under a warm and a cold sweep.
type pinnedSeries struct {
	Name   string    `json:"name"`
	T      int       `json:"t"`
	Limit  string    `json:"limit"`
	Tables [][]int64 `json:"tables"`
	Warm   []pinned  `json:"warm"`
	Cold   []pinned  `json:"cold"`
}

type pinned struct {
	N      string `json:"n"`
	Lo     string `json:"lo"`
	Hi     string `json:"hi"`
	IC     string `json:"ic"`
	LogLik string `json:"loglik"`
}

func pinnedFloat(t *testing.T, hex string) float64 {
	t.Helper()
	b, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		t.Fatalf("bad pinned bits %q: %v", hex, err)
	}
	return math.Float64frombits(b)
}

// TestEstimateSweepPinned pins EstimateSweep bit for bit: N̂, the profile
// interval, the IC and the final log-likelihood of every window of a fixed
// set of synthetic series (t = 3..9; unbounded, finite and /24-style
// truncation-binding limits; warm and cold sweeps) must reproduce the
// committed Float64bits exactly. The differential kernel tests compare two
// implementations against each other at a tolerance; this one catches any
// drift in the engine's output, however small.
func TestEstimateSweepPinned(t *testing.T) {
	raw, err := os.ReadFile("testdata/sweep_pinned.json")
	if err != nil {
		t.Fatal(err)
	}
	var series []pinnedSeries
	if err := json.Unmarshal(raw, &series); err != nil {
		t.Fatal(err)
	}
	if len(series) == 0 {
		t.Fatal("empty pinned fixture")
	}
	for _, ps := range series {
		t.Run(ps.Name, func(t *testing.T) {
			est := DefaultEstimator(pinnedFloat(t, ps.Limit))
			for _, mode := range []struct {
				name string
				warm bool
				want []pinned
			}{{"warm", true, ps.Warm}, {"cold", false, ps.Cold}} {
				if len(mode.want) != len(ps.Tables) {
					t.Fatalf("%s: %d pinned results for %d tables", mode.name, len(mode.want), len(ps.Tables))
				}
				var prev *FitResult
				for w, counts := range ps.Tables {
					tb := NewTable(ps.T)
					copy(tb.Counts, counts)
					if !mode.warm {
						prev = nil
					}
					res, fit, err := est.EstimateSweep(tb, prev)
					if err != nil {
						t.Fatalf("%s window %d: %v", mode.name, w, err)
					}
					prev = fit
					want := mode.want[w]
					for _, f := range []struct {
						field string
						got   float64
						want  string
					}{
						{"N", res.N, want.N},
						{"Lo", res.Interval.Lo, want.Lo},
						{"Hi", res.Interval.Hi, want.Hi},
						{"IC", res.IC, want.IC},
						{"LogLik", fit.LogLik, want.LogLik},
					} {
						if got := fmt.Sprintf("%016x", math.Float64bits(f.got)); got != f.want {
							t.Errorf("%s window %d %s: bits %s (%v), pinned %s (%v)",
								mode.name, w, f.field, got, f.got, f.want, pinnedFloat(t, f.want))
						}
					}
				}
			}
		})
	}
}
