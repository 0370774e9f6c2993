package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pfuzzer/internal/corpus"
	"pfuzzer/internal/registry"
)

// snapMix is the perfbench service workload's subject mix, each
// subject at four seeds, plain and hybrid: 80 campaigns of 6k
// executions, run to completion, as a pfuzzerd campaign is when its
// final snapshot is cut.
var snapMix = sync.OnceValue(func() []*Campaign {
	subjects := []string{"expr", "paren", "urlp", "sexpr", "httpreq", "cjson", "csv", "ini", "tinyc", "dotg"}
	var out []*Campaign
	for _, name := range subjects {
		e, ok := registry.Get(name)
		if !ok {
			panic("unknown subject " + name)
		}
		for seed := int64(1); seed <= 4; seed++ {
			for _, mine := range []bool{false, true} {
				c := NewCampaign(e.New(), Config{Seed: seed, MaxExecs: 6000, MinePhase: mine, MineLexer: e.Lexer})
				for {
					if _, more := c.Step(4096); !more {
						break
					}
				}
				out = append(out, c)
			}
		}
	}
	return out
})

// reportSnapSize reports the mean size of one cut: the marshaled blob
// and the compressed sidecar corpus.AppendSnapshot published for it.
func reportSnapSize(b *testing.B, blobs [][]byte, journals []string) {
	raw, gz := 0, int64(0)
	for i, blob := range blobs {
		fi, err := os.Stat(corpus.SnapPath(journals[i]))
		if err != nil {
			b.Fatal(err)
		}
		raw += len(blob)
		gz += fi.Size()
	}
	n := float64(len(blobs))
	b.ReportMetric(float64(raw)/1024/n, "raw_KB/cut")
	b.ReportMetric(float64(gz)/1024/n, "gz_KB/cut")
}

// BenchmarkSnapshotCut times the final snapshot of every campaign in
// the mix: Snapshot, Marshal and corpus.AppendSnapshot (gzip, fsync,
// rename). One op cuts all 80 campaigns.
func BenchmarkSnapshotCut(b *testing.B) {
	camps := snapMix()
	dir := b.TempDir()
	paths := make([]string, len(camps))
	stores := make([]*corpus.Store, len(camps))
	for i := range camps {
		paths[i] = filepath.Join(dir, fmt.Sprintf("c%d.journal", i))
		st, err := corpus.Create(paths[i], corpus.Meta{Subject: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		stores[i] = st
	}
	blobs := make([][]byte, len(camps))
	b.ResetTimer()
	for range b.N {
		for i, c := range camps {
			blob, err := c.Snapshot().Marshal()
			if err != nil {
				b.Fatal(err)
			}
			if err := stores[i].AppendSnapshot(blob); err != nil {
				b.Fatal(err)
			}
			blobs[i] = blob
		}
	}
	b.StopTimer()
	reportSnapSize(b, blobs, paths)
}

// BenchmarkSnapshotWalk times Campaign.Snapshot alone, the in-memory
// walk of BenchmarkSnapshotCut, over the same mix. One op walks all 80
// campaigns.
func BenchmarkSnapshotWalk(b *testing.B) {
	camps := snapMix()
	b.ResetTimer()
	for range b.N {
		for _, c := range camps {
			snapSink = c.Snapshot()
		}
	}
}

// snapSink keeps BenchmarkSnapshotWalk's result live.
var snapSink *Snapshot

// BenchmarkSnapshotResume times what a restarted daemon does per
// campaign: corpus.Open (journal recovery and the sidecar's gunzip),
// UnmarshalSnapshot and Restore. One op resumes all 80 campaigns.
func BenchmarkSnapshotResume(b *testing.B) {
	camps := snapMix()
	dir := b.TempDir()
	paths := make([]string, len(camps))
	blobs := make([][]byte, len(camps))
	for i, c := range camps {
		paths[i] = filepath.Join(dir, fmt.Sprintf("c%d.journal", i))
		st, err := corpus.Create(paths[i], corpus.Meta{Subject: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range c.Result().Valids {
			if err := st.AppendValid(v.Exec, v.Input); err != nil {
				b.Fatal(err)
			}
		}
		if blobs[i], err = c.Snapshot().Marshal(); err != nil {
			b.Fatal(err)
		}
		if err := st.AppendSnapshot(blobs[i]); err != nil {
			b.Fatal(err)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for range b.N {
		for i, c := range camps {
			st, err := corpus.Open(paths[i])
			if err != nil {
				b.Fatal(err)
			}
			snap, err := UnmarshalSnapshot(st.Snapshot())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Restore(c.f.prog, Config{MineLexer: c.f.cfg.MineLexer}, snap); err != nil {
				b.Fatal(err)
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	reportSnapSize(b, blobs, paths)
}
