package telemetry_test

// Benchmarks for the no-op vs enabled telemetry delta, gated in CI
// against BENCH_telemetry.json.
//
// Each benchmark op records a fixed inner batch (recordsPerOp events),
// so the repo's single-iteration gate (-benchtime=1x -count=5) still
// measures a stable multi-microsecond region instead of timer noise.

import (
	"testing"

	"langcrawl/internal/telemetry"
)

const recordsPerOp = 100000

func BenchmarkCounterInc(b *testing.B) {
	c := telemetry.NewRegistry().Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < recordsPerOp; j++ {
			c.Inc()
		}
	}
}

func BenchmarkCounterIncDisabled(b *testing.B) {
	var c *telemetry.Counter // the nil no-op path a disabled run takes
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < recordsPerOp; j++ {
			c.Inc()
		}
	}
}

func BenchmarkGaugeSet(b *testing.B) {
	g := telemetry.NewRegistry().Gauge("bench_gauge", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < recordsPerOp; j++ {
			g.Set(int64(j))
		}
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := telemetry.NewRegistry().Histogram("bench_hist", "", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < recordsPerOp; j++ {
			h.Observe(0.005)
		}
	}
}

func BenchmarkHistogramObserveDisabled(b *testing.B) {
	var h *telemetry.Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < recordsPerOp; j++ {
			h.Observe(0.005)
		}
	}
}

func BenchmarkTracerEvent(b *testing.B) {
	tr := telemetry.NewRegistry().Tracer("bench_trace", 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < recordsPerOp/10; j++ { // mutexed: rare-path budget
			tr.Event("event", "detail")
		}
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	reg := telemetry.NewRegistry()
	stats := telemetry.NewCrawlStats(reg)
	stats.Pages.Add(12345)
	for i := 0; i < 1000; i++ {
		stats.FetchLatency.Observe(float64(i) / 1000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 100; j++ {
			if err := reg.WritePrometheus(discard{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
