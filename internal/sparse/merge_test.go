package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// triplet is one emitted matrix entry, in emission order.
type triplet struct {
	r, c int32
	v    float64
}

// naiveMerge is the reference CSR build: a stable sort of all triplets by
// (row, col), then a left fold of each duplicate run in emission order.
// Zero values are dropped, as Builder.Add drops them.
func naiveMerge(n int, ts []triplet) *CSR {
	var kept []triplet
	for _, t := range ts {
		if t.v != 0 {
			kept = append(kept, t)
		}
	}
	slices.SortStableFunc(kept, func(a, b triplet) int {
		if a.r != b.r {
			return int(a.r - b.r)
		}
		return int(a.c - b.c)
	})
	m := &CSR{N: n, RowPtr: make([]int32, n+1)}
	for k := 0; k < len(kept); {
		e := k + 1
		s := kept[k].v
		for e < len(kept) && kept[e].r == kept[k].r && kept[e].c == kept[k].c {
			s += kept[e].v
			e++
		}
		m.Col = append(m.Col, kept[k].c)
		m.Val = append(m.Val, s)
		m.RowPtr[kept[k].r+1]++
		k = e
	}
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}

// mergeShards is a random shard set over an n×n matrix plus the triplet
// stream it emits, in shard order.
func mergeShards(rng *rand.Rand, n, nShards int) ([]*Builder, []triplet) {
	vals := []float64{1e16, 1, -1e16, -1, 0.1, 0.2, 0.3, 3, -2.5}
	val := func() float64 {
		if rng.Intn(3) == 0 {
			return vals[rng.Intn(len(vals))]
		}
		return rng.NormFloat64() * math.Ldexp(1, rng.Intn(40)-20)
	}
	// Row roles: every fifth row is empty, every seventh carries only its
	// diagonal, and row 3 (when present) is a hub with well over 64 entries.
	role := func(r int) int {
		switch {
		case r == 3:
			return 3
		case r%5 == 0:
			return 0
		case r%7 == 0:
			return 1
		}
		return 2
	}
	var all []triplet
	shards := make([]*Builder, nShards)
	for s := range shards {
		b := NewBuilder(n)
		shards[s] = b
		if s == 1 {
			continue // one shard stays empty
		}
		emit := func(r, c int, v float64) {
			b.Add(r, c, v)
			all = append(all, triplet{int32(r), int32(c), v})
		}
		entries := rng.Intn(4 * n)
		for k := 0; k < entries; k++ {
			r := rng.Intn(n)
			switch role(r) {
			case 0:
			case 1:
				emit(r, r, val())
			case 3:
				for j := 0; j < 40; j++ {
					emit(r, rng.Intn(n), val())
				}
			default:
				switch rng.Intn(4) {
				case 0:
					emit(r, r, val())
				case 1:
					// A spring: the symmetric stamp AddSym emits.
					c := rng.Intn(n)
					if role(c) != 2 {
						continue
					}
					w := val()
					b.AddSym(r, c, w)
					all = append(all, triplet{int32(r), int32(r), w}, triplet{int32(c), int32(c), w},
						triplet{int32(r), int32(c), -w}, triplet{int32(c), int32(r), -w})
				default:
					c := rng.Intn(n)
					if role(c) == 2 {
						emit(r, c, val())
					}
				}
			}
		}
		// The hub row always exceeds the insertion-sort cutoff.
		if n > 3 {
			for j := 0; j < 70; j++ {
				emit(3, rng.Intn(n), val())
			}
		}
		// Reassociation probes: folded left to right, 1e16, 1, -1e16 and
		// 1, 1e16, -1e16 both sum to 0, but other orders give 1. The
		// off-diagonal probe is interleaved with other columns so the sort
		// has to move it. A cancelling pair leaves an explicitly stored zero.
		if r := 2; r < n && role(r) == 2 {
			emit(r, r, 1e16)
			emit(r, r, 1)
			emit(r, r, -1e16)
			emit(r, n-1, 1)
			emit(r, 0, 5)
			emit(r, n-1, 1e16)
			emit(r, 1, 6)
			emit(r, n-1, -1e16)
			emit(r, n/2, 4)
			emit(r, n/2, -4)
		}
	}
	return shards, all
}

// TestBuildMergedIntoMatchesNaive checks the counting build against the
// naive stable-sort reference, bit for bit, on random shard sets at several
// pool sizes, reusing the output and scratch buffers across calls.
func TestBuildMergedIntoMatchesNaive(t *testing.T) {
	withThreads(t, func(threads int) {
		rng := rand.New(rand.NewSource(int64(41 + threads)))
		var m *CSR
		var ws BuildScratch
		for trial := 0; trial < 12; trial++ {
			n := []int{1, 9, 70, 300, 5000}[trial%5]
			shards, all := mergeShards(rng, n, 1+rng.Intn(4))
			m = BuildMergedInto(m, &ws, n, shards...)
			want := naiveMerge(n, all)
			if !slices.Equal(m.RowPtr, want.RowPtr) {
				t.Fatalf("threads=%d n=%d: RowPtr differs", threads, n)
			}
			if !slices.Equal(m.Col, want.Col) {
				t.Fatalf("threads=%d n=%d: Col differs", threads, n)
			}
			for k := range want.Val {
				if math.Float64bits(m.Val[k]) != math.Float64bits(want.Val[k]) {
					t.Fatalf("threads=%d n=%d: Val[%d] = %v, want %v", threads, n, k, m.Val[k], want.Val[k])
				}
			}
		}
	})
}
