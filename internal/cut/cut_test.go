package cut

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"lily/internal/bench"
	"lily/internal/decomp"
	"lily/internal/library"
	"lily/internal/logic"
	"lily/internal/match"
)

// subjectFor premaps a generated benchmark into its NAND2/INV subject graph.
func subjectFor(t *testing.T, name string) *logic.Network {
	t.Helper()
	p, ok := bench.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %s", name)
	}
	res, err := decomp.Premap(bench.Generate(p))
	if err != nil {
		t.Fatal(err)
	}
	return res.Inchoate
}

func randomSubject(t *testing.T, seed int64) *logic.Network {
	t.Helper()
	res, err := decomp.Premap(bench.Random(seed, 8, 5, 60, 4))
	if err != nil {
		t.Fatal(err)
	}
	return res.Inchoate
}

// TestKFeasibilityProperties is the property harness of the enumerator:
// on a real benchmark and a spread of random subjects, for K=4 and K=6,
// every emitted match must be a K-feasible, irredundant, deterministic
// cut whose LUT reproduces the cone function.
func TestKFeasibilityProperties(t *testing.T) {
	subjects := map[string]*logic.Network{"b9": subjectFor(t, "b9")}
	for seed := int64(1); seed <= 4; seed++ {
		subjects[string(rune('r'))+string(rune('0'+seed))] = randomSubject(t, seed)
	}
	for name, sub := range subjects {
		for _, k := range []int{4, 6} {
			e := NewEnumerator(sub, library.Big(), k)
			cls := match.Classify(sub)
			total := 0
			for _, nd := range sub.Nodes {
				if nd == nil {
					continue
				}
				v := nd.ID
				ms := e.MatchesAt(v)
				if tp := cls.Type(v); tp != match.TypeNand2 && tp != match.TypeInv {
					if ms != nil {
						t.Fatalf("%s K=%d: non-base node %s has %d matches", name, k, nd.Name, len(ms))
					}
					continue
				}
				if len(ms) == 0 {
					t.Fatalf("%s K=%d: base node %s has no matches (the 1-leaf INV/NAND cut always exists)", name, k, nd.Name)
				}
				total += len(ms)
				for i, m := range ms {
					// K-feasibility and leaf-set hygiene.
					if len(m.Inputs) == 0 || len(m.Inputs) > k {
						t.Fatalf("%s K=%d node %s: cut width %d outside [1,%d]", name, k, nd.Name, len(m.Inputs), k)
					}
					for j := 1; j < len(m.Inputs); j++ {
						if m.Inputs[j-1] >= m.Inputs[j] {
							t.Fatalf("%s K=%d node %s: leaves not strictly ascending: %v", name, k, nd.Name, m.Inputs)
						}
					}
					for _, l := range m.Inputs {
						if l == v {
							t.Fatalf("%s K=%d node %s: root appears as its own leaf", name, k, nd.Name)
						}
					}
					if len(m.Merged) == 0 || m.Merged[0] != v {
						t.Fatalf("%s K=%d node %s: cone must start at the root, got %v", name, k, nd.Name, m.Merged)
					}
					// Deterministic (leaf count, leaf IDs) order.
					if i > 0 && compareLeaves(ms[i-1].Inputs, m.Inputs) >= 0 {
						t.Fatalf("%s K=%d node %s: match order violated at %d: %v !< %v",
							name, k, nd.Name, i, ms[i-1].Inputs, m.Inputs)
					}
					// Irredundance: no other cut's leaves contain this cut's.
					for j, o := range ms {
						if j != i && isSubset(m.Inputs, o.Inputs) {
							t.Fatalf("%s K=%d node %s: cut %v dominates kept cut %v",
								name, k, nd.Name, m.Inputs, o.Inputs)
						}
					}
					// The synthesized LUT computes the cone function.
					if err := match.Verify(sub, m); err != nil {
						t.Fatalf("%s K=%d node %s: %v", name, k, nd.Name, err)
					}
					if m.Gate.NumInputs != len(m.Inputs) {
						t.Fatalf("%s K=%d node %s: gate arity %d != cut width %d",
							name, k, nd.Name, m.Gate.NumInputs, len(m.Inputs))
					}
				}
			}
			if total == 0 {
				t.Fatalf("%s K=%d: enumerator produced no matches at all", name, k)
			}
		}
	}
}

// TestMatchesMemoized pins the Backend memo contract: after the first
// call, MatchesAt is a pure read returning the identical slice, so doves
// re-evaluated in later cones cost no re-enumeration.
func TestMatchesMemoized(t *testing.T) {
	sub := subjectFor(t, "b9")
	e := NewEnumerator(sub, library.Big(), 4)
	for _, nd := range sub.Nodes {
		if nd == nil {
			continue
		}
		a := e.MatchesAt(nd.ID)
		b := e.MatchesAt(nd.ID)
		if len(a) != len(b) || (len(a) > 0 && &a[0] != &b[0]) {
			t.Fatalf("node %s: MatchesAt not memoized", nd.Name)
		}
	}
}

// TestGateCachePointerStability: equal-function cuts share one gate
// instance, so the netlist builder and the BLIF writer see a stable,
// deduplicated gate set.
func TestGateCachePointerStability(t *testing.T) {
	sub := subjectFor(t, "b9")
	e := NewEnumerator(sub, library.Big(), 4)
	byName := map[string]*library.Gate{}
	for _, nd := range sub.Nodes {
		if nd == nil {
			continue
		}
		for _, m := range e.MatchesAt(nd.ID) {
			if prev, ok := byName[m.Gate.Name]; ok && prev != m.Gate {
				t.Fatalf("gate %s has two instances", m.Gate.Name)
			}
			byName[m.Gate.Name] = m.Gate
		}
	}
}

// mkCut builds a cut over the given (sorted) leaves with its signature.
func mkCut(ids ...logic.NodeID) cut {
	c := cut{leaves: ids}
	for _, id := range ids {
		c.sig |= leafBit(id)
	}
	return c
}

func TestPruneCutsDropsSupersetsAndDuplicates(t *testing.T) {
	n := func(ids ...logic.NodeID) []logic.NodeID { return ids }
	in := [][]logic.NodeID{
		n(1, 2, 3), // dominated by {1,2}
		n(1, 2),
		n(1, 2), // duplicate
		n(2, 3),
		n(4, 5, 6), // untouched
	}
	want := [][]logic.NodeID{n(1, 2), n(2, 3), n(4, 5, 6)}
	var cuts []cut
	for _, c := range in {
		cuts = append(cuts, mkCut(c...))
	}
	got := pruneCuts(cuts)
	if len(got) != len(want) {
		t.Fatalf("pruneCuts kept %d cuts, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if compareLeaves(got[i].leaves, want[i]) != 0 {
			t.Fatalf("cut %d = %v, want %v", i, got[i].leaves, want[i])
		}
	}
	// The reference pruner agrees on the same cases.
	ref := refPruneCuts(append([][]logic.NodeID(nil), in...))
	if len(ref) != len(want) {
		t.Fatalf("refPruneCuts kept %d cuts, want %d: %v", len(ref), len(want), ref)
	}
	for i := range want {
		if compareLeaves(ref[i], want[i]) != 0 {
			t.Fatalf("reference cut %d = %v, want %v", i, ref[i], want[i])
		}
	}
}

// TestPruneCutsSignatureCollision: leaves 1 and 65 share signature bit
// 1, so the signature filter passes {1} against {2,65} and the leaf
// comparison must still keep the latter.
func TestPruneCutsSignatureCollision(t *testing.T) {
	got := pruneCuts([]cut{mkCut(2, 65), mkCut(1), mkCut(1, 65)})
	if len(got) != 2 || compareLeaves(got[0].leaves, []logic.NodeID{1}) != 0 ||
		compareLeaves(got[1].leaves, []logic.NodeID{2, 65}) != 0 {
		t.Fatalf("pruneCuts = %v, want [{1} {2 65}]", got)
	}
}

// TestSelectCutsDiversity: the cap must keep cuts of every leaf count,
// not just the narrowest — wide cuts are how a 6-LUT earns its keep.
func TestSelectCutsDiversity(t *testing.T) {
	var leaves [][]logic.NodeID
	for w := 1; w <= 4; w++ {
		for i := 0; i < 10; i++ {
			c := make([]logic.NodeID, w)
			for j := range c {
				c[j] = logic.NodeID(100*w + 10*i + j)
			}
			leaves = append(leaves, c)
		}
	}
	var cuts []cut
	for _, c := range leaves {
		cuts = append(cuts, mkCut(c...))
	}
	got := selectCuts(cuts, 4)
	if len(got) != maxCuts {
		t.Fatalf("selectCuts kept %d, want %d", len(got), maxCuts)
	}
	byWidth := map[int]int{}
	for _, c := range got {
		byWidth[len(c.leaves)]++
	}
	for w := 1; w <= 4; w++ {
		if byWidth[w] == 0 {
			t.Fatalf("cap evicted every %d-leaf cut: %v", w, byWidth)
		}
	}
	ref := refSelectCuts(leaves, 4)
	if len(ref) != len(got) {
		t.Fatalf("selectCuts kept %d, reference %d", len(got), len(ref))
	}
	for i := range ref {
		if compareLeaves(got[i].leaves, ref[i]) != 0 {
			t.Fatalf("survivor %d = %v, reference %v", i, got[i].leaves, ref[i])
		}
	}
}

func TestMergeLeavesRejectsWide(t *testing.T) {
	a := []logic.NodeID{1, 3, 5}
	b := []logic.NodeID{2, 4, 6}
	dst := make([]logic.NodeID, 6)
	if n, ok := mergeLeaves(dst, a, b, 6); !ok || n != 6 {
		t.Fatalf("mergeLeaves(k=6) = %v, %v", dst[:n], ok)
	}
	if _, ok := mergeLeaves(dst[:5], a, b, 5); ok {
		t.Fatalf("mergeLeaves(k=5) accepted a 6-leaf union")
	}
	if n, ok := mergeLeaves(dst[:3], a, a, 3); !ok || n != 3 {
		t.Fatalf("mergeLeaves(self) = %v, %v (duplicates must collapse)", dst[:n], ok)
	}
	// The reference merge agrees on the same cases.
	if u, ok := refMergeLeaves(a, b, 6); !ok || len(u) != 6 {
		t.Fatalf("refMergeLeaves(k=6) = %v, %v", u, ok)
	}
	if _, ok := refMergeLeaves(a, b, 5); ok {
		t.Fatalf("refMergeLeaves(k=5) accepted a 6-leaf union")
	}
	if u, ok := refMergeLeaves(a, a, 3); !ok || len(u) != 3 {
		t.Fatalf("refMergeLeaves(self) = %v, %v (duplicates must collapse)", u, ok)
	}
}

// TestLUTName pins the cell-name format of the mapped BLIF against
// fmt's zero-padded hex, the format the goldens were written with.
func TestLUTName(t *testing.T) {
	for k := 1; k <= MaxK; k++ {
		rows := 1 << k
		for _, tt := range []uint64{0, 1, 0x6, 0x8000, 0xdeadbeefcafef00d, ^uint64(0)} {
			if rows < 64 {
				tt &= uint64(1)<<rows - 1
			}
			if got, want := lutName(k, tt), refLUTName(k, tt); got != want {
				t.Fatalf("lutName(%d, %#x) = %q, want %q", k, tt, got, want)
			}
		}
	}
}

func TestNewEnumeratorKRange(t *testing.T) {
	sub := subjectFor(t, "b9")
	for _, k := range []int{1, 7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEnumerator(K=%d) did not panic", k)
				}
			}()
			NewEnumerator(sub, library.Big(), k)
		}()
	}
}

// refEnumerator is the cut enumerator as first written: plain leaf-set
// slices without signatures, one fresh slice per merge, recursive cone
// and truth-table walks, and fmt-formatted cell names. The production
// enumerator must reproduce its cut lists and matches exactly.
type refEnumerator struct {
	net  *logic.Network
	cls  *match.Classifier
	k    int
	cuts map[logic.NodeID][][]logic.NodeID
}

func newRefEnumerator(net *logic.Network, k int) *refEnumerator {
	return &refEnumerator{net: net, cls: match.Classify(net), k: k, cuts: map[logic.NodeID][][]logic.NodeID{}}
}

func (e *refEnumerator) nodeCuts(v logic.NodeID) [][]logic.NodeID {
	if c, ok := e.cuts[v]; ok {
		return c
	}
	trivial := []logic.NodeID{v}
	var merged [][]logic.NodeID
	switch e.cls.Type(v) {
	case match.TypeInv:
		f := e.net.Nodes[v].Fanins[0]
		merged = append(merged, e.nodeCuts(f)[0:]...)
	case match.TypeNand2:
		f := e.net.Nodes[v].Fanins
		c0, c1 := e.nodeCuts(f[0]), e.nodeCuts(f[1])
		for _, a := range c0 {
			for _, b := range c1 {
				if u, ok := refMergeLeaves(a, b, e.k); ok {
					merged = append(merged, u)
				}
			}
		}
	default:
		e.cuts[v] = [][]logic.NodeID{trivial}
		return e.cuts[v]
	}
	merged = refSelectCuts(refPruneCuts(merged), e.k)
	e.cuts[v] = append([][]logic.NodeID{trivial}, merged...)
	return e.cuts[v]
}

// refMatch is one reference match: cell name, leaves and cone.
type refMatch struct {
	gate           string
	inputs, merged []logic.NodeID
}

func (e *refEnumerator) matchesAt(v logic.NodeID) []refMatch {
	if t := e.cls.Type(v); t != match.TypeNand2 && t != match.TypeInv {
		return nil
	}
	var out []refMatch
	for _, leaves := range e.nodeCuts(v) {
		if len(leaves) == 1 && leaves[0] == v {
			continue
		}
		out = append(out, refMatch{
			gate:   refLUTName(len(leaves), e.truthTable(v, leaves)),
			inputs: leaves,
			merged: e.cone(v, leaves),
		})
	}
	return out
}

func refSelectCuts(cuts [][]logic.NodeID, k int) [][]logic.NodeID {
	if len(cuts) <= maxCuts {
		return cuts
	}
	type span struct{ start, end int }
	groups := make([]span, k)
	for i, c := range cuts {
		w := len(c) - 1
		if groups[w].end == 0 {
			groups[w].start = i
		}
		groups[w].end = i + 1
	}
	keep := make([]bool, len(cuts))
	kept := 0
	for round := 0; kept < maxCuts; round++ {
		took := false
		for w := 0; w < k && kept < maxCuts; w++ {
			g := groups[w]
			if i := g.start + round; i < g.end {
				keep[i] = true
				kept++
				took = true
			}
		}
		if !took {
			break
		}
	}
	out := cuts[:0]
	for i, c := range cuts {
		if keep[i] {
			out = append(out, c)
		}
	}
	return out
}

func refMergeLeaves(a, b []logic.NodeID, k int) ([]logic.NodeID, bool) {
	out := make([]logic.NodeID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
		if len(out) > k {
			return nil, false
		}
	}
	if len(out)+len(a)-i+len(b)-j > k {
		return nil, false
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out, true
}

func refPruneCuts(cuts [][]logic.NodeID) [][]logic.NodeID {
	sort.Slice(cuts, func(i, j int) bool { return refLeavesLess(cuts[i], cuts[j]) })
	out := cuts[:0]
	for _, c := range cuts {
		dominated := false
		for _, kept := range out {
			if refIsSubset(kept, c) {
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

func refLeavesLess(a, b []logic.NodeID) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func refIsSubset(a, b []logic.NodeID) bool {
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

func (e *refEnumerator) cone(v logic.NodeID, leaves []logic.NodeID) []logic.NodeID {
	leaf := map[logic.NodeID]bool{}
	for _, l := range leaves {
		leaf[l] = true
	}
	seen := map[logic.NodeID]bool{}
	var out []logic.NodeID
	var walk func(u logic.NodeID)
	walk = func(u logic.NodeID) {
		if leaf[u] || seen[u] {
			return
		}
		seen[u] = true
		out = append(out, u)
		for _, f := range e.net.Nodes[u].Fanins {
			walk(f)
		}
	}
	walk(v)
	return out
}

func (e *refEnumerator) truthTable(v logic.NodeID, leaves []logic.NodeID) uint64 {
	k := len(leaves)
	rows := 1 << uint(k)
	tt := map[logic.NodeID]uint64{}
	for i, l := range leaves {
		var t uint64
		for r := 0; r < rows; r++ {
			if r>>uint(i)&1 == 1 {
				t |= 1 << uint(r)
			}
		}
		tt[l] = t
	}
	var eval func(u logic.NodeID) uint64
	eval = func(u logic.NodeID) uint64 {
		if t, ok := tt[u]; ok {
			return t
		}
		f := e.net.Nodes[u].Fanins
		var t uint64
		if len(f) == 1 {
			t = ^eval(f[0])
		} else {
			t = ^(eval(f[0]) & eval(f[1]))
		}
		tt[u] = t
		return t
	}
	mask := ^uint64(0)
	if rows < 64 {
		mask = (uint64(1) << uint(rows)) - 1
	}
	return eval(v) & mask
}

func refLUTName(k int, tt uint64) string {
	hexWidth := (1 << uint(k)) / 4
	if hexWidth < 1 {
		hexWidth = 1
	}
	return fmt.Sprintf("lut%d_%0*x", k, hexWidth, tt)
}

// TestEnumeratorMatchesReference is the differential test of the cut
// representation: over the fifteen paper circuits and seeded random
// NAND2/INV subjects, at K=4 and K=6, every node must get the reference
// enumerator's cut list in the same order and the same matches (cell
// name, Inputs, Merged). Published Inputs and Merged slices must be
// capped at their length, so an append by a caller cannot overwrite a
// neighbor in the arena.
func TestEnumeratorMatchesReference(t *testing.T) {
	type subject struct {
		name string
		net  *logic.Network
	}
	var subjects []subject
	for _, p := range bench.Profiles() {
		subjects = append(subjects, subject{p.Name, subjectFor(t, p.Name)})
	}
	for seed := int64(1); seed <= 8; seed++ {
		subjects = append(subjects, subject{fmt.Sprintf("random%d", seed), randomSubject(t, seed)})
	}
	same := func(a, b []logic.NodeID) bool { return slices.Equal(a, b) }
	for _, s := range subjects {
		for _, k := range []int{4, 6} {
			e := NewEnumerator(s.net, library.Big(), k)
			ref := newRefEnumerator(s.net, k)
			for _, nd := range s.net.Nodes {
				if nd == nil {
					continue
				}
				v := nd.ID
				got, want := e.nodeCuts(v), ref.nodeCuts(v)
				if len(got) != len(want) {
					t.Fatalf("%s K=%d node %d: %d cuts, reference %d", s.name, k, v, len(got), len(want))
				}
				for i := range want {
					if !same(got[i].leaves, want[i]) {
						t.Fatalf("%s K=%d node %d cut %d: %v, reference %v", s.name, k, v, i, got[i].leaves, want[i])
					}
					if c := mkCut(want[i]...); got[i].sig != c.sig {
						t.Fatalf("%s K=%d node %d cut %d: signature %#x, want %#x", s.name, k, v, i, got[i].sig, c.sig)
					}
				}
				ms, rms := e.MatchesAt(v), ref.matchesAt(v)
				if len(ms) != len(rms) {
					t.Fatalf("%s K=%d node %d: %d matches, reference %d", s.name, k, v, len(ms), len(rms))
				}
				for i, m := range ms {
					r := rms[i]
					if m.Gate.Name != r.gate || !same(m.Inputs, r.inputs) || !same(m.Merged, r.merged) {
						t.Fatalf("%s K=%d node %d match %d: %s %v %v, reference %s %v %v",
							s.name, k, v, i, m.Gate.Name, m.Inputs, m.Merged, r.gate, r.inputs, r.merged)
					}
					if cap(m.Inputs) != len(m.Inputs) || cap(m.Merged) != len(m.Merged) {
						t.Fatalf("%s K=%d node %d match %d: arena slice not capped", s.name, k, v, i)
					}
				}
			}
		}
	}
}
