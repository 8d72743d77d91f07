// Package cut implements K-feasible cut enumeration over the NAND2/INV
// subject graph and converts every cut into a candidate match backed by
// a synthesized K-input LUT cell. It is the FPGA counterpart of the
// structural matcher in internal/match: both are Backend implementations
// for the covering DP in internal/core (DESIGN.md §14), so LUT cut
// selection is driven by the same placement-aware wire cost as ASIC
// match selection.
//
// Enumeration is the classic bottom-up merge: cuts(v) for a NAND2 node
// is every ≤K-leaf union of one cut of each fanin (plus the trivial cut
// {v} used only for merging), and for an INV node it is the fanin's cut
// set passed through. Cut sets are kept irredundant — a cut whose leaf
// set contains another cut's leaf set is dominated and dropped — and
// bounded to maxCuts per node, shortest leaf sets first, so enumeration
// stays linear in practice. Everything is memoized per node and fully
// deterministic: leaves are sorted by node ID, cut lists are ordered by
// (leaf count, leaf IDs), and the synthesized gate for a given (K, truth
// table) pair is cached so pointer identity is stable within a run.
//
// Every cut carries a 64-bit leaf signature that rejects over-wide merges
// and non-dominating pairs with word operations before any leaf is
// compared, and published leaf sets, cones and matches are cut from
// per-enumerator arenas (DESIGN.md §14, "cut representation").
package cut

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"

	"lily/internal/library"
	"lily/internal/logic"
	"lily/internal/match"
)

// maxCuts bounds the per-node cut list. When a node has more irredundant
// cuts than the cap, the survivors are drawn round-robin across leaf
// counts (the first 1-leaf cut, the first 2-leaf cut, ..., then the
// second of each, ...), so the DP always sees both narrow cuts — minimal
// cuts with few leaves reach deepest and wire cheapest — and wide cuts
// that trade inputs for coverage. 16 keeps the per-node candidate count
// in the same range as the ASIC match lists.
const maxCuts = 16

// MaxK is the largest supported LUT input count: cone truth tables are
// computed in a single 64-bit word (2^6 rows).
const MaxK = library.MaxLUTInputs

// cut is one K-feasible cut: its leaf set, sorted ascending, and its
// signature, the OR of 1<<(id&63) over the leaves. Distinct leaves may
// share a signature bit, so popcount(sig) <= len(leaves), and a subset's
// signature is a subset of the superset's signature.
type cut struct {
	leaves []logic.NodeID
	sig    uint64
}

func leafBit(id logic.NodeID) uint64 { return 1 << (uint(id) & 63) }

// Enumerator finds the K-feasible cuts of a subject graph and exposes
// them as match lists. It is the LUT Backend of the covering engine.
// Like match.Matcher, results are memoized per node: the subject graph
// is immutable for the lifetime of a cover run, so each node's cut set
// and match list are computed exactly once. A memo hit is a pure read
// returning the same slice, so a dove re-evaluated in a later cone costs
// no re-enumeration.
type Enumerator struct {
	net *logic.Network
	lib *library.Library
	cls *match.Classifier
	k   int

	// cuts[v] holds node v's cuts, the trivial cut {v} first; nil until
	// computed.
	cuts [][]cut
	// memo holds the per-node MatchesAt results (nil for nodes that take
	// no LUT, e.g. PIs); memoOK marks computed entries.
	memo   [][]*match.Match
	memoOK []bool

	// gates caches the synthesized LUT cell per (arity, truth table), so
	// equal-function cuts share one *library.Gate within the run.
	gates map[gateKey]*library.Gate

	// Published cut lists, leaf sets, cones and matches are cut from
	// these arenas and never written again.
	cutArena   arena[cut]
	idArena    arena[logic.NodeID]
	matchArena arena[match.Match]
	ptrArena   arena[*match.Match]

	// Per-call scratch, reused across nodes: merge candidates and their
	// leaves, and the cone walk's stack and output.
	cands    []cut
	mergeBuf []logic.NodeID
	stack    []logic.NodeID
	coneBuf  []logic.NodeID

	// Cone-walk state: node u is a leaf of the current cut iff
	// leafStamp[u] == stamp, an interior node already reached iff
	// seenStamp[u] == stamp, and tt[u] holds u's function over the leaves
	// once u is a leaf or its walk has finished.
	leafStamp []uint32
	seenStamp []uint32
	tt        []uint64
	stamp     uint32
}

type gateKey struct {
	k  int
	tt uint64
}

// arena hands out fixed-length slices cut from shared chunks, so many
// small immutable slices cost one allocation per chunk. A returned slice
// is capped at its length: appending to it reallocates instead of
// overwriting a neighbor.
type arena[T any] struct{ buf []T }

const arenaChunk = 1024

func (a *arena[T]) alloc(n int) []T {
	if n > cap(a.buf)-len(a.buf) {
		a.buf = make([]T, 0, max(n, arenaChunk))
	}
	start := len(a.buf)
	a.buf = a.buf[:start+n]
	return a.buf[start : start+n : start+n]
}

func (a *arena[T]) copy(s []T) []T {
	out := a.alloc(len(s))
	copy(out, s)
	return out
}

// NewEnumerator builds a K-feasible cut enumerator over the subject
// graph. k must be in [2, MaxK].
func NewEnumerator(net *logic.Network, lib *library.Library, k int) *Enumerator {
	if k < 2 || k > MaxK {
		panic(fmt.Sprintf("cut: K=%d out of range [2,%d]", k, MaxK))
	}
	n := len(net.Nodes)
	return &Enumerator{
		net:       net,
		lib:       lib,
		cls:       match.Classify(net),
		k:         k,
		cuts:      make([][]cut, n),
		memo:      make([][]*match.Match, n),
		memoOK:    make([]bool, n),
		gates:     make(map[gateKey]*library.Gate),
		leafStamp: make([]uint32, n),
		seenStamp: make([]uint32, n),
		tt:        make([]uint64, n),
	}
}

// K returns the enumerator's LUT input bound.
func (e *Enumerator) K() int { return e.k }

// MatchesAt returns the LUT matches rooted at v: one per non-trivial
// K-feasible cut, in deterministic (leaf count, leaf IDs) order. Results
// are memoized; callers must treat the returned slice as read-only.
func (e *Enumerator) MatchesAt(v logic.NodeID) []*match.Match {
	if e.memoOK[v] {
		return e.memo[v]
	}
	out := e.matchesAt(v)
	e.memo[v] = out
	e.memoOK[v] = true
	return out
}

func (e *Enumerator) matchesAt(v logic.NodeID) []*match.Match {
	if t := e.cls.Type(v); t != match.TypeNand2 && t != match.TypeInv {
		return nil
	}
	// The trivial cut comes first and exists only to seed fanout merges.
	cuts := e.nodeCuts(v)[1:]
	if len(cuts) == 0 {
		return nil
	}
	ms := e.matchArena.alloc(len(cuts))
	out := e.ptrArena.alloc(len(cuts))
	for i, c := range cuts {
		tt, cone := e.coneTable(v, c.leaves)
		ms[i] = match.Match{
			Gate:   e.lutGate(len(c.leaves), tt),
			Inputs: c.leaves,
			Merged: cone,
		}
		out[i] = &ms[i]
	}
	return out
}

// nodeCuts returns v's cut set, trivial cut first, memoized. Non-trivial
// cuts are irredundant, capped at maxCuts with leaf-count diversity, and
// ordered by (leaf count, leaf IDs ascending).
func (e *Enumerator) nodeCuts(v logic.NodeID) []cut {
	if e.cuts[v] != nil {
		return e.cuts[v]
	}
	// PIs and foreign nodes match no case below: they get only the
	// trivial cut.
	var cands []cut
	inScratch := false // candidate leaves live in mergeBuf, not an arena
	switch e.cls.Type(v) {
	case match.TypeInv:
		// Every cut of the fanin is a cut of v (same leaves, one more
		// interior node), so v shares the fanin's published leaf sets.
		fc := e.nodeCuts(e.net.Nodes[v].Fanins[0])
		cands = append(e.cands[:0], fc...)
	case match.TypeNand2:
		f := e.net.Nodes[v].Fanins
		// Both fanins are enumerated before the scratch buffers are
		// touched: the recursion reuses them.
		c0, c1 := e.nodeCuts(f[0]), e.nodeCuts(f[1])
		need := len(c0) * len(c1) * e.k
		if cap(e.mergeBuf) < need {
			e.mergeBuf = make([]logic.NodeID, need)
		}
		buf := e.mergeBuf[:need]
		cands = e.cands[:0]
		off := 0
		for _, a := range c0 {
			for _, b := range c1 {
				sig := a.sig | b.sig
				if bits.OnesCount64(sig) > e.k {
					continue // the union has at least popcount(sig) leaves
				}
				if n, ok := mergeLeaves(buf[off:off+e.k], a.leaves, b.leaves, e.k); ok {
					cands = append(cands, cut{leaves: buf[off : off+n : off+n], sig: sig})
					off += n
				}
			}
		}
		inScratch = true
	}
	e.cands = cands
	kept := selectCuts(pruneCuts(cands), e.k)
	out := e.cutArena.alloc(1 + len(kept))
	out[0] = cut{leaves: e.idArena.alloc(1), sig: leafBit(v)}
	out[0].leaves[0] = v
	for i, c := range kept {
		if inScratch {
			c.leaves = e.idArena.copy(c.leaves)
		}
		out[i+1] = c
	}
	e.cuts[v] = out
	return out
}

// selectCuts enforces the maxCuts cap with leaf-count diversity: cuts
// (already in (leaf count, leaf IDs) order from pruneCuts) are taken
// round-robin across leaf-count groups until the cap fills, then the
// survivors are returned in the original order. Round-robin takes a
// prefix of each group, so the survivors are those prefixes, compacted
// in place.
func selectCuts(cuts []cut, k int) []cut {
	if len(cuts) <= maxCuts {
		return cuts
	}
	var count, take [MaxK]int
	for _, c := range cuts {
		count[len(c.leaves)-1]++
	}
	for kept := 0; kept < maxCuts; {
		took := false
		for w := 0; w < k && kept < maxCuts; w++ {
			if take[w] < count[w] {
				take[w]++
				kept++
				took = true
			}
		}
		if !took {
			break
		}
	}
	out := cuts[:0]
	start := 0
	for w := 0; w < k; w++ {
		out = append(out, cuts[start:start+take[w]]...)
		start += count[w]
	}
	return out
}

// mergeLeaves writes the sorted union of the sorted leaf sets a and b
// into dst (room for k leaves) and returns its length, rejecting unions
// wider than k. The inputs are never mutated.
func mergeLeaves(dst, a, b []logic.NodeID, k int) (int, bool) {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		if n == k {
			return 0, false
		}
		switch {
		case a[i] < b[j]:
			dst[n] = a[i]
			i++
		case a[i] > b[j]:
			dst[n] = b[j]
			j++
		default:
			dst[n] = a[i]
			i++
			j++
		}
		n++
	}
	if n+len(a)-i+len(b)-j > k {
		return 0, false
	}
	n += copy(dst[n:], a[i:])
	n += copy(dst[n:], b[j:])
	return n, true
}

// pruneCuts sorts cuts by (leaf count, leaf IDs) and removes duplicates
// and dominated cuts (supersets of an earlier, smaller cut). Sorting
// shorter sets first means any dominating cut precedes its supersets, so
// a single forward pass suffices. A kept cut whose signature has a bit
// outside c's signature holds a leaf c lacks, so the leaf comparison is
// skipped for it.
func pruneCuts(cuts []cut) []cut {
	slices.SortFunc(cuts, func(a, b cut) int { return compareLeaves(a.leaves, b.leaves) })
	out := cuts[:0]
	for _, c := range cuts {
		dominated := false
		for _, kept := range out {
			if kept.sig&^c.sig == 0 && isSubset(kept.leaves, c.leaves) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, c)
		}
	}
	return out
}

// compareLeaves orders leaf sets by size, then element-wise by node ID.
func compareLeaves(a, b []logic.NodeID) int {
	if len(a) != len(b) {
		return len(a) - len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// isSubset reports a ⊆ b for sorted slices (equality included).
func isSubset(a, b []logic.NodeID) bool {
	if len(a) > len(b) {
		return false
	}
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j >= len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// bumpStamp advances the O(1)-clear epoch for the cone-walk scratch sets.
func (e *Enumerator) bumpStamp() {
	e.stamp++
	if e.stamp == 0 { // wrapped: reset the backing arrays once per 2^32 clears
		for i := range e.leafStamp {
			e.leafStamp[i] = 0
			e.seenStamp[i] = 0
		}
		e.stamp = 1
	}
}

// coneTable walks the cut's cone once. It returns the cut function as a
// truth table over the leaves (leaf i is input variable i; row r holds
// the output for the assignment where leaf i takes bit i of r) and the
// cone's interior nodes — everything reachable from v without crossing a
// leaf — in deterministic preorder, root first (the match.Match Merged
// convention). The walk is a depth-first search on an explicit stack: a
// node's fanins are pushed in reverse so they pop in order, and the
// complemented ID pushed beneath them marks the point where they are all
// done and the node's NAND2/INV can be evaluated on whole-table words.
// The cut property guarantees every interior node is a NAND2/INV whose
// function the leaves determine.
func (e *Enumerator) coneTable(v logic.NodeID, leaves []logic.NodeID) (uint64, []logic.NodeID) {
	e.bumpStamp()
	for i, l := range leaves {
		e.leafStamp[l] = e.stamp
		e.tt[l] = library.VarTable[i]
	}
	cone := e.coneBuf[:0]
	stack := append(e.stack[:0], v)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if u < 0 {
			u = ^u
			f := e.net.Nodes[u].Fanins
			if len(f) == 1 {
				e.tt[u] = ^e.tt[f[0]]
			} else {
				e.tt[u] = ^(e.tt[f[0]] & e.tt[f[1]])
			}
			continue
		}
		if e.leafStamp[u] == e.stamp || e.seenStamp[u] == e.stamp {
			continue // leaf, or interior node already collected
		}
		e.seenStamp[u] = e.stamp
		cone = append(cone, u)
		stack = append(stack, ^u)
		f := e.net.Nodes[u].Fanins
		for j := len(f) - 1; j >= 0; j-- {
			stack = append(stack, f[j])
		}
	}
	e.coneBuf, e.stack = cone, stack
	tt := e.tt[v]
	if rows := 1 << uint(len(leaves)); rows < 64 {
		tt &= uint64(1)<<uint(rows) - 1
	}
	return tt, e.idArena.copy(cone)
}

// lutGate returns the synthesized LUT cell for a k-input truth table in
// this enumerator's K-LUT tile, cached per (arity, function) so equal
// cuts share one gate instance. The cover is the table's minterm
// expansion — exact, and at most 2^k cubes — and the name encodes arity
// plus the table in hex, so mapped BLIF is self-describing and
// byte-stable.
func (e *Enumerator) lutGate(k int, tt uint64) *library.Gate {
	key := gateKey{k: k, tt: tt}
	if g, ok := e.gates[key]; ok {
		return g
	}
	g := library.NewLUTTable(lutName(k, tt), k, tt, e.k)
	e.gates[key] = g
	return g
}

// lutName is "lut<k>_<tt>", the table in lower-case hex zero-padded to
// one digit per four rows (at least one digit).
func lutName(k int, tt uint64) string {
	var buf [24]byte
	b := append(buf[:0], "lut"...)
	b = strconv.AppendInt(b, int64(k), 10)
	b = append(b, '_')
	var hex [16]byte
	h := strconv.AppendUint(hex[:0], tt, 16)
	for pad := max(1, (1<<uint(k))/4) - len(h); pad > 0; pad-- {
		b = append(b, '0')
	}
	return string(append(b, h...))
}
