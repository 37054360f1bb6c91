package serve

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"nopower/internal/stats"
)

// BenchmarkServeLoad is the E20 load benchmark (`make bench-serve`): each
// iteration floods a fresh in-memory daemon with 500 jobs over 8 distinct
// specs — the multi-tenant shape, where most submissions dedup onto a few
// computations — and takes the flood's p50/p99 submit-to-done job latency.
// It reports the median of those over every flood of the run. Every job
// must finish done: a lost or failed job fails the benchmark.
func BenchmarkServeLoad(b *testing.B) {
	const jobs, distinct = 500, 8
	var p50s, p99s []float64
	for i := 0; i < b.N; i++ {
		s, err := New(Config{})
		if err != nil {
			b.Fatal(err)
		}
		lat := make([]time.Duration, jobs)
		var wg sync.WaitGroup
		errs := make(chan string, jobs)
		for j := range lat {
			spec := JobSpec{Mix: "scale2", Ticks: 120, Seed: int64(9000 + j%distinct)}
			start := time.Now()
			v, err := s.Submit(spec)
			if err != nil {
				b.Fatal(err)
			}
			// The job's own waiter starts right after its submit, so its
			// latency is stamped the moment it finishes, even when that is
			// before the last job of the flood is submitted.
			wg.Add(1)
			go func(j int, id string) {
				defer wg.Done()
				v, err := s.Wait(context.Background(), id)
				if err != nil {
					errs <- err.Error()
					return
				}
				if v.Status != StatusDone {
					errs <- string(v.Status) + ": " + v.Error
					return
				}
				lat[j] = time.Since(start)
			}(j, v.ID)
		}
		wg.Wait()
		close(errs)
		if msg, bad := <-errs; bad {
			b.Fatal(msg)
		}
		s.Close()
		sort.Slice(lat, func(a, c int) bool { return lat[a] < lat[c] })
		p50s = append(p50s, float64(lat[jobs/2].Microseconds())/1e3)
		p99s = append(p99s, float64(lat[jobs*99/100].Microseconds())/1e3)
	}
	// ReportMetric keeps one value per unit, so the floods' percentiles are
	// reported once, as medians, after the last flood.
	b.ReportMetric(stats.Summarize(p50s).Median, "p50-ms")
	b.ReportMetric(stats.Summarize(p99s).Median, "p99-ms")
	b.ReportMetric(float64(jobs), "jobs/op")
}
