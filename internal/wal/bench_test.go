package wal

import (
	"fmt"
	"sync"
	"testing"
)

// BenchmarkWriterAppend measures append throughput into a fresh log with
// one fsync per record against group commit, where one fsync covers every
// writer that arrived during the previous flush. It reports records/s:
//
//	go test -run '^$' -bench WriterAppend ./internal/wal
func BenchmarkWriterAppend(b *testing.B) {
	for _, mode := range []struct {
		name string
		mode SyncMode
	}{{"sync_each", SyncEach}, {"sync_group", SyncGroup}} {
		for _, writers := range []int{1, 16} {
			b.Run(fmt.Sprintf("%s/writers=%d", mode.name, writers), func(b *testing.B) {
				w := openEmpty(b, b.TempDir(), mode.mode)
				b.ResetTimer()
				var wg sync.WaitGroup
				for g := 0; g < writers; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := g; i < b.N; i += writers {
							if err := w.Append(testRecord(i)); err != nil {
								b.Error(err)
								return
							}
						}
					}(g)
				}
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}
