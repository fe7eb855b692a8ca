package ipset

import (
	"slices"
	"testing"
	"testing/quick"

	"ghosts/internal/ipv4"
	"ghosts/internal/rng"
)

func TestCaptureHistogramSmall(t *testing.T) {
	a := fromUints([]uint32{1, 2, 3})
	b := fromUints([]uint32{2, 3, 4})
	c := fromUints([]uint32{3, 4, 5, 70000})
	h := CaptureHistogram([]*Set{a, b, c})
	// addr 1: only a (mask 001=1); 2: a,b (011=3); 3: a,b,c (111=7);
	// 4: b,c (110=6); 5: c (100=4); 70000: c (100=4).
	want := map[int]int64{1: 1, 3: 1, 7: 1, 6: 1, 4: 2}
	for m, w := range want {
		if h[m] != w {
			t.Errorf("counts[%03b] = %d, want %d", m, h[m], w)
		}
	}
	if h[0] != 0 {
		t.Errorf("counts[0] = %d, want 0", h[0])
	}
	var total int64
	for _, v := range h {
		total += v
	}
	if total != int64(Union(Union(a, b), c).Len()) {
		t.Errorf("histogram total %d != union size", total)
	}
}

func TestCaptureHistogramMatchesNaive(t *testing.T) {
	f := func(as, bs, cs []uint32) bool {
		sets := []*Set{fromUints(as), fromUints(bs), fromUints(cs)}
		h := CaptureHistogram(sets)
		// Naive recomputation.
		naive := make([]int64, 8)
		union := Union(Union(sets[0], sets[1]), sets[2])
		union.Range(func(x ipv4.Addr) bool {
			m := 0
			for i, s := range sets {
				if s.Contains(x) {
					m |= 1 << i
				}
			}
			naive[m]++
			return true
		})
		for i := range naive {
			if naive[i] != h[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	// Random uint32s almost never share a /24, so the check above only
	// exercises the single-source popcount path. Draw t = 1..16 sources
	// from a handful of /24s instead, so most addresses are multiply
	// covered and the mask assembly carries the histogram.
	dense := func(seed uint64, tRaw uint8) bool {
		sets := denseSets(seed, 1+int(tRaw%16))
		return slices.Equal(CaptureHistogram(sets), naiveHistogram(sets))
	}
	if err := quick.Check(dense, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// denseSets draws t sources over the same three to five /24s, each source
// holding about half of every /24, so most addresses are seen by several
// sources at once.
func denseSets(seed uint64, t int) []*Set {
	r := rng.New(seed)
	bases := make([]uint32, 3+r.Intn(3))
	for i := range bases {
		bases[i] = r.Uint32() &^ 0xff
	}
	sets := make([]*Set, t)
	for i := range sets {
		sets[i] = New()
		for _, b := range bases {
			for x := uint32(0); x < 256; x++ {
				if r.Bernoulli(0.5) {
					sets[i].Add(ipv4.Addr(b | x))
				}
			}
		}
	}
	return sets
}

// naiveHistogram folds the sets address by address over their union.
func naiveHistogram(sets []*Set) []int64 {
	h := make([]int64, 1<<uint(len(sets)))
	union := New()
	for _, s := range sets {
		union = Union(union, s)
	}
	union.Range(func(x ipv4.Addr) bool {
		m := 0
		for i, s := range sets {
			if s.Contains(x) {
				m |= 1 << i
			}
		}
		h[m]++
		return true
	})
	return h
}

// TestCaptureHistogramsDenseGroups checks the grouped folds on dense,
// multiply-covered sources: CaptureHistogramsBy and every grouping of
// CaptureHistogramsMulti must equal CaptureHistogram run over each
// group's /24s alone, and leave groups without pages nil.
func TestCaptureHistogramsDenseGroups(t *testing.T) {
	f := func(seed uint64, tRaw uint8) bool {
		sets := denseSets(seed, 1+int(tRaw%16))
		perGroup := func(n int, group func(uint32) int) [][]int64 {
			want := make([][]int64, n)
			for g := range want {
				filtered := make([]*Set, len(sets))
				empty := true
				for i, s := range sets {
					filtered[i] = New()
					s.Range(func(x ipv4.Addr) bool {
						if group(x.Slash24Index()) == g {
							filtered[i].Add(x)
						}
						return true
					})
					empty = empty && filtered[i].Len() == 0
				}
				if !empty {
					want[g] = CaptureHistogram(filtered)
				}
			}
			return want
		}
		same := func(got, want [][]int64) bool {
			if len(got) != len(want) {
				return false
			}
			for g := range want {
				if (got[g] == nil) != (want[g] == nil) || !slices.Equal(got[g], want[g]) {
					return false
				}
			}
			return true
		}
		groupings := []Grouping{
			{N: 2, Group: func(k uint32) int { return int(k % 2) }},
			{N: 3, Group: func(k uint32) int {
				if k%4 == 3 {
					return -1
				}
				return int(k % 4)
			}},
		}
		multi := CaptureHistogramsMulti(sets, groupings)
		for gi, g := range groupings {
			want := perGroup(g.N, g.Group)
			if !same(CaptureHistogramsBy(sets, g.N, g.Group), want) || !same(multi[gi], want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCaptureHistogramEdge(t *testing.T) {
	h := CaptureHistogram(nil)
	if len(h) != 1 || h[0] != 0 {
		t.Fatalf("empty input: %v", h)
	}
	one := CaptureHistogram([]*Set{fromUints([]uint32{9, 10})})
	if one[1] != 2 || one[0] != 0 {
		t.Fatalf("single source: %v", one)
	}
}

// TestCaptureHistogramsByDifferential pins the grouped fold against the
// ungrouped one: partitioning the address space by /24 groups and folding
// once must equal filtering each group's addresses out of every set and
// folding per group. Group −1 addresses must vanish entirely.
func TestCaptureHistogramsByDifferential(t *testing.T) {
	f := func(as, bs, cs []uint32) bool {
		sets := []*Set{fromUints(as), fromUints(bs), fromUints(cs)}
		const ngroups = 4
		group := func(key24 uint32) int {
			g := int(key24 % (ngroups + 1)) // one residue drops
			if g == ngroups {
				return -1
			}
			return g
		}
		got := CaptureHistogramsBy(sets, ngroups, group)
		for g := 0; g < ngroups; g++ {
			// Reference: filter each source down to group g, fold densely.
			filtered := make([]*Set, len(sets))
			empty := true
			for i, s := range sets {
				filtered[i] = New()
				s.Range(func(x ipv4.Addr) bool {
					if group(x.Slash24Index()) == g {
						filtered[i].Add(x)
					}
					return true
				})
				if filtered[i].Len() > 0 {
					empty = false
				}
			}
			if empty {
				if got[g] != nil {
					return false
				}
				continue
			}
			want := CaptureHistogram(filtered)
			if got[g] == nil || len(got[g]) != len(want) {
				return false
			}
			for c := range want {
				if got[g][c] != want[c] {
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

// TestCaptureHistogramsMultiDifferential pins the shared-page-fold variant
// against per-grouping CaptureHistogramsBy calls: every grouping's result
// must match cell for cell, including nil-ness of unobserved groups.
func TestCaptureHistogramsMultiDifferential(t *testing.T) {
	f := func(as, bs, cs []uint32) bool {
		sets := []*Set{fromUints(as), fromUints(bs), fromUints(cs)}
		groupings := []Grouping{
			{N: 3, Group: func(k uint32) int { return int(k % 3) }},
			{N: 4, Group: func(k uint32) int {
				if k%5 == 4 {
					return -1
				}
				return int(k % 4)
			}},
			{N: 1, Group: func(uint32) int { return 0 }},
		}
		got := CaptureHistogramsMulti(sets, groupings)
		for gi, g := range groupings {
			want := CaptureHistogramsBy(sets, g.N, g.Group)
			if len(got[gi]) != len(want) {
				return false
			}
			for grp := range want {
				if (got[gi][grp] == nil) != (want[grp] == nil) {
					return false
				}
				for c := range want[grp] {
					if got[gi][grp][c] != want[grp][c] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCaptureHistogramsByEdge(t *testing.T) {
	if out := CaptureHistogramsBy(nil, 3, func(uint32) int { return 0 }); len(out) != 3 {
		t.Fatalf("empty input: %v", out)
	}
	out := CaptureHistogramsBy([]*Set{fromUints([]uint32{1, 300})}, 2,
		func(k uint32) int { return int(k) }) // /24 0 → group 0, /24 1 → group 1
	if out[0][1] != 1 || out[1][1] != 1 {
		t.Fatalf("per-group counts: %v", out)
	}
}

func BenchmarkCaptureHistogram(b *testing.B) {
	sets := make([]*Set, 9)
	for i := range sets {
		sets[i] = randomSet(50000, int64(i+1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CaptureHistogram(sets)
	}
}
