package pqueue

import (
	"math/rand"
	"testing"
)

// rescorer is the common surface of Queue and the test's refQueue.
type rescorer interface {
	Push(v int, score float64)
	PopRescored(rescore func(int) float64) (int, float64, bool)
	Reorder(rescore func(int) float64)
}

// BenchmarkQueueRescore measures the queue's re-score layer on a
// 20k-entry queue with tied scores in which 10% of the scores fall per
// pass, the shape a campaign's re-score passes have: a Reorder pass, and
// a PopRescored whose popped value goes back in with a retry penalty.
// The reference sub-benchmarks run the full-rebuild queue of
// diff_test.go on the same workload.
func BenchmarkQueueRescore(b *testing.B) {
	const n = 20000
	for _, impl := range []struct {
		name string
		make func() rescorer
	}{
		{"incremental", func() rescorer { return new(Queue[int]) }},
		{"reference", func() rescorer { return new(refQueue[int]) }},
	} {
		// base is each value's score before any fall; pass counts the
		// re-score passes. Value v's score falls by one on every pass
		// with (pass+v)%10 == 0 — a tenth of the queue per pass. calls
		// counts score evaluations, reported per op.
		var calls int
		setup := func() (rescorer, []float64, *int, func(int) float64) {
			rng := rand.New(rand.NewSource(1))
			base := make([]float64, n)
			pass := new(int)
			score := func(v int) float64 {
				calls++
				return base[v] - float64((*pass+v)/10)
			}
			q := impl.make()
			for v := range base {
				base[v] = float64(rng.Intn(64))
				q.Push(v, score(v))
			}
			return q, base, pass, score
		}
		b.Run("Reorder/"+impl.name, func(b *testing.B) {
			q, _, pass, score := setup()
			calls = 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				*pass++
				q.Reorder(score)
			}
			b.ReportMetric(float64(calls)/float64(b.N), "rescores/op")
		})
		b.Run("PopRescored/"+impl.name, func(b *testing.B) {
			q, base, pass, score := setup()
			calls = 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				*pass++
				v, _, _ := q.PopRescored(score)
				base[v] -= 2
				q.Push(v, score(v))
			}
			b.ReportMetric(float64(calls)/float64(b.N), "rescores/op")
		})
	}
}
