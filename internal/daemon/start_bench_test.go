package daemon

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkServerStart measures a daemon restart over a state
// directory holding only settled campaigns: New (which reads and
// decodes every spec.json and rebuilds each settled campaign's
// status) plus Close. The specs=0 case is the fixed cost of starting
// and stopping the fleet pool; the ns/spec metric is the whole
// restart divided by the spec count, so its excess over the specs=0
// time per spec is what each settled campaign adds.
func BenchmarkServerStart(b *testing.B) {
	for _, n := range []int{0, 100, 1000} {
		b.Run(fmt.Sprintf("specs=%d", n), func(b *testing.B) {
			root := b.TempDir()
			for i := 1; i <= n; i++ {
				sp := &Spec{
					ID:                  formatID(i),
					Submission:          Submission{Tenant: fmt.Sprintf("t%d", i%4), Subject: "cjson", Seed: int64(i), MaxExecs: 6000},
					State:               StateDone,
					FinalExecs:          6000,
					FinalValids:         40,
					FinalElapsedMS:      900,
					FinalCoverageBlocks: 120,
					FinalCacheHits:      1200,
					FinalCacheMisses:    4800,
				}
				dir := filepath.Join(root, sp.ID)
				if err := os.MkdirAll(dir, 0o755); err != nil {
					b.Fatal(err)
				}
				if err := writeSpec(dir, sp); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := New(Config{Root: root, Workers: 2})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
			}
			if n > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/spec")
			}
		})
	}
}
