package cut

import (
	"testing"

	"lily/internal/bench"
	"lily/internal/decomp"
	"lily/internal/library"
	"lily/internal/logic"
)

// BenchmarkEnumeratorLUT4 and ...LUT6 measure the LUT candidate
// generator alone: a MatchesAt sweep over every logic node of the C5315
// subject graph on a fresh enumerator, the enumeration half of a LUT
// cover run.
func BenchmarkEnumeratorLUT4(b *testing.B) { benchEnumerator(b, 4) }

func BenchmarkEnumeratorLUT6(b *testing.B) { benchEnumerator(b, 6) }

func benchEnumerator(b *testing.B, k int) {
	p, ok := bench.ProfileByName("C5315")
	if !ok {
		b.Fatal("no profile C5315")
	}
	res, err := decomp.Premap(bench.Generate(p))
	if err != nil {
		b.Fatal(err)
	}
	sub := res.Inchoate
	lib := library.Big()
	var nodes []logic.NodeID
	for _, nd := range sub.Nodes {
		if nd != nil && nd.Kind == logic.KindLogic {
			nodes = append(nodes, nd.ID)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		e := NewEnumerator(sub, lib, k)
		for _, v := range nodes {
			total += len(e.MatchesAt(v))
		}
	}
	b.ReportMetric(float64(total)/float64(b.N)/float64(len(nodes)), "matches/node")
}
