package ipset

import "math/bits"

// CaptureHistogram computes, for up to 16 sources, the number of addresses
// with each capture history. The returned slice has length 1<<len(sets);
// entry m counts the addresses present in exactly the sources whose bit is
// set in m (entry 0 is always zero — unobserved addresses are what the
// log-linear model estimates).
//
// The computation is page-wise: for each /24 page occupied by any source
// the per-source 256-bit bitmaps are combined 64 bits at a time. Addresses
// seen by a single source — the overwhelmingly common case — are counted
// in bulk with one popcount per source per word; only addresses covered by
// two or more sources take the mask scatter.
func CaptureHistogram(sets []*Set) []int64 {
	t := len(sets)
	if t == 0 {
		return []int64{0}
	}
	if t > 16 {
		panic("ipset: CaptureHistogram supports at most 16 sources")
	}
	counts := make([]int64, 1<<uint(t))
	var touched []int
	ps := mergePages(sets)
	for k := range ps.keys {
		touched = foldPage(counts, ps.slot(k), touched[:0])
	}
	return counts
}

// CaptureHistogramsBy computes one capture histogram per group in a single
// pass over the merged source pages: group assigns every occupied /24 page
// (by its Slash24Index) to a group in [0, ngroups), or a negative group to
// drop the page entirely. A page is atomic — all 256 addresses of a /24
// share its group — which is exactly the granularity of stratum labels
// (allocations are /24-aligned or larger, and static/dynamic is defined
// per /24), so one pass suffices for any /24-granular partition.
//
// The result is indexed by group; groups that own no occupied page stay
// nil. Each non-nil histogram has length 1<<len(sets) and is cell-for-cell
// identical to CaptureHistogram run over the sets restricted to that
// group's /24s.
func CaptureHistogramsBy(sets []*Set, ngroups int, group func(key24 uint32) int) [][]int64 {
	t := len(sets)
	out := make([][]int64, ngroups)
	if t == 0 || ngroups == 0 {
		return out
	}
	if t > 16 {
		panic("ipset: CaptureHistogramsBy supports at most 16 sources")
	}
	var touched []int
	ps := mergePages(sets)
	for k, idx := range ps.keys {
		g := group(idx)
		if g < 0 {
			continue
		}
		counts := out[g]
		if counts == nil {
			counts = make([]int64, 1<<uint(t))
			out[g] = counts
		}
		touched = foldPage(counts, ps.slot(k), touched[:0])
	}
	return out
}

// A Grouping partitions occupied /24 pages for one grouped histogram:
// Group assigns a page (by Slash24Index) to a group in [0, N), or a
// negative group to drop the page under this grouping.
type Grouping struct {
	N     int
	Group func(key24 uint32) int
}

// CaptureHistogramsMulti computes CaptureHistogramsBy for several
// groupings at once, folding every merged page exactly once: the page's
// histogram lands in a scratch buffer and its touched cells are scattered
// into each grouping's target. The page fold dominates the grouped fold's
// cost and is identical for every grouping (only the page→group map
// differs), so k groupings cost barely more than one. Each result is
// cell-for-cell identical to the corresponding CaptureHistogramsBy call.
func CaptureHistogramsMulti(sets []*Set, groupings []Grouping) [][][]int64 {
	t := len(sets)
	out := make([][][]int64, len(groupings))
	for gi := range groupings {
		out[gi] = make([][]int64, groupings[gi].N)
	}
	if t == 0 || len(groupings) == 0 {
		return out
	}
	if t > 16 {
		panic("ipset: CaptureHistogramsMulti supports at most 16 sources")
	}
	scratch := make([]int64, 1<<uint(t))
	touched := make([]int, 0, 64)
	targets := make([][]int64, len(groupings))
	ps := mergePages(sets)
	for k, idx := range ps.keys {
		keep := false
		for gi := range groupings {
			g := groupings[gi].Group(idx)
			if g < 0 || groupings[gi].N == 0 {
				targets[gi] = nil
				continue
			}
			counts := out[gi][g]
			if counts == nil {
				counts = make([]int64, 1<<uint(t))
				out[gi][g] = counts
			}
			targets[gi] = counts
			keep = true
		}
		if !keep {
			continue
		}
		touched = foldPage(scratch, ps.slot(k), touched[:0])
		for _, c := range touched {
			v := scratch[c]
			scratch[c] = 0
			for _, tgt := range targets {
				if tgt != nil {
					tgt[c] += v
				}
			}
		}
	}
	return out
}

// mergedPages is the union of t sets' occupied /24 pages laid out as flat
// slots: slot k covers /24 keys[k] and owns pages[k*t : k*t+t], source
// i's page of that /24 at offset i (nil where the source lacks it).
type mergedPages struct {
	t     int
	keys  []uint32
	pages []*page
}

// slot returns the t source pages of slot k.
func (mp *mergedPages) slot(k int) []*page {
	return mp.pages[k*mp.t : k*mp.t+mp.t : k*mp.t+mp.t]
}

// mergePages joins the per-set page maps into flat slots: one insertion
// per (set, occupied page), through a key→slot index whose values hold no
// pointers, pre-sized to the largest set's page count. Slot order is
// first-seen order; every fold is an integer sum, so it cannot change a
// histogram.
func mergePages(sets []*Set) mergedPages {
	t := len(sets)
	most := 0
	for _, s := range sets {
		if len(s.pages) > most {
			most = len(s.pages)
		}
	}
	var empty [16]*page
	mp := mergedPages{t: t, keys: make([]uint32, 0, most), pages: make([]*page, 0, most*t)}
	slots := make(map[uint32]int32, most)
	for i, s := range sets {
		for idx, p := range s.pages {
			k, ok := slots[idx]
			if !ok {
				k = int32(len(mp.keys))
				slots[idx] = k
				mp.keys = append(mp.keys, idx)
				mp.pages = append(mp.pages, empty[:t]...)
			}
			mp.pages[int(k)*t+i] = p
		}
	}
	return mp
}

// foldPage accumulates one merged /24 page into a capture histogram and
// returns touched extended by every cell the fold moved off zero. The
// grouped fold folds into a zeroed scratch and scatters just those cells
// (zeroing them again after); the other folds pass touched[:0] and ignore
// the result.
func foldPage(counts []int64, pages []*page, touched []int) []int {
	var wds [16]uint64
	var masks [64]uint16
	for w := 0; w < 4; w++ {
		var any, mult uint64
		for i, p := range pages {
			var v uint64
			if p != nil {
				v = p[w]
			}
			wds[i] = v
			mult |= any & v
			any |= v
		}
		// Bits set in exactly one source: one popcount per source.
		if single := any &^ mult; single != 0 {
			for i := range pages {
				if n := bits.OnesCount64(wds[i] & single); n > 0 {
					touched = bump(counts, 1<<uint(i), int64(n), touched)
				}
			}
		}
		if mult == 0 {
			continue
		}
		// Bits set in two or more sources: each source scatters its share
		// of them into the bits' capture masks.
		masks = [64]uint16{}
		for i := range pages {
			for v := wds[i] & mult; v != 0; v &= v - 1 {
				masks[bits.TrailingZeros64(v)] |= 1 << uint(i)
			}
		}
		for ; mult != 0; mult &= mult - 1 {
			touched = bump(counts, int(masks[bits.TrailingZeros64(mult)]), 1, touched)
		}
	}
	return touched
}

// bump adds n to cell c, listing c in touched if it was zero.
func bump(counts []int64, c int, n int64, touched []int) []int {
	if counts[c] == 0 {
		touched = append(touched, c)
	}
	counts[c] += n
	return touched
}
