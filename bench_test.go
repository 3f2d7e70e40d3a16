package langcrawl

// One benchmark per table and figure of the paper (via the experiments
// harness at reduced scale), plus micro-benchmarks for the components
// those experiments lean on: charset detection, page synthesis, frontier
// operations, graph generation, crawl-log I/O.
//
// Run everything:   go test -bench=. -benchmem
// Full-scale runs belong to cmd/experiments, not the benchmarks.

import (
	"bytes"
	"testing"

	"langcrawl/internal/charset"
	"langcrawl/internal/core"
	"langcrawl/internal/crawlog"
	"langcrawl/internal/experiments"
	"langcrawl/internal/frontier"
	"langcrawl/internal/htmlx"
	"langcrawl/internal/rng"
	"langcrawl/internal/sim"
	"langcrawl/internal/textgen"
	"langcrawl/internal/webgraph"
)

// benchOptions keeps the per-figure benchmarks CI-friendly; the shapes
// the checks assert hold at this scale too.
func benchOptions() experiments.Options {
	return experiments.Options{ThaiPages: 8000, JPPages: 3000, Seed: 77}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := experiments.New(benchOptions())
		o, err := r.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if !o.Passed() {
			for _, c := range o.Checks {
				if !c.Pass {
					b.Fatalf("%s: claim failed: %s — %s", id, c.Claim, c.Detail)
				}
			}
		}
	}
}

// --- one benchmark per table/figure -----------------------------------------

func BenchmarkTable1CharsetRoundTrip(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2StrategyMatrix(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkTable3DatasetGen(b *testing.B)       { benchExperiment(b, "table3") }
func BenchmarkFig3SimpleThai(b *testing.B)         { benchExperiment(b, "fig3") }
func BenchmarkFig4SimpleJapanese(b *testing.B)     { benchExperiment(b, "fig4") }
func BenchmarkFig5QueueSize(b *testing.B)          { benchExperiment(b, "fig5") }
func BenchmarkFig6NonPrioritized(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkFig7Prioritized(b *testing.B)        { benchExperiment(b, "fig7") }

// --- ablation benches --------------------------------------------------------

func BenchmarkAblationClassifier(b *testing.B) { benchExperiment(b, "abl-classifier") }
func BenchmarkAblationLocality(b *testing.B)   { benchExperiment(b, "abl-locality") }
func BenchmarkAblationMislabel(b *testing.B)   { benchExperiment(b, "abl-mislabel") }
func BenchmarkAblationAdaptive(b *testing.B)   { benchExperiment(b, "abl-adaptive") }
func BenchmarkAblationQueueMode(b *testing.B)  { benchExperiment(b, "abl-queue") }
func BenchmarkAblationSeeds(b *testing.B)      { benchExperiment(b, "abl-seeds") }
func BenchmarkAblationFaults(b *testing.B)     { benchExperiment(b, "abl-faults") }
func BenchmarkAblationTimed(b *testing.B)      { benchExperiment(b, "abl-timed") }

// --- component micro-benchmarks ----------------------------------------------

func benchPage(cs charset.Charset, lang charset.Language) []byte {
	return textgen.HTMLPage(textgen.PageSpec{
		Lang: lang, Charset: cs, DeclaredCharset: cs, Paragraphs: 4,
		Links: []string{"http://a.example/x", "http://b.example/y"},
	}, rng.New(9))
}

func BenchmarkDetectEUCJP(b *testing.B) {
	page := benchPage(charset.EUCJP, charset.LangJapanese)
	b.SetBytes(int64(len(page)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := charset.Detect(page); r.Language != charset.LangJapanese {
			b.Fatalf("detected %v", r.Charset)
		}
	}
}

func BenchmarkDetectShiftJIS(b *testing.B) {
	page := benchPage(charset.ShiftJIS, charset.LangJapanese)
	b.SetBytes(int64(len(page)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := charset.Detect(page); r.Language != charset.LangJapanese {
			b.Fatalf("detected %v", r.Charset)
		}
	}
}

func BenchmarkDetectTIS620(b *testing.B) {
	page := benchPage(charset.TIS620, charset.LangThai)
	b.SetBytes(int64(len(page)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := charset.Detect(page); r.Language != charset.LangThai {
			b.Fatalf("detected %v", r.Charset)
		}
	}
}

func BenchmarkCodecEncodeEUCJP(b *testing.B) {
	g := textgen.New(charset.LangJapanese, rng.New(4))
	text := g.Paragraph(20)
	codec := charset.CodecFor(charset.EUCJP)
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		codec.Encode(text)
	}
}

func BenchmarkCodecDecodeEUCJP(b *testing.B) {
	g := textgen.New(charset.LangJapanese, rng.New(4))
	enc := charset.CodecFor(charset.EUCJP).Encode(g.Paragraph(20))
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		charset.CodecFor(charset.EUCJP).Decode(enc)
	}
}

func BenchmarkHTMLParse(b *testing.B) {
	page := benchPage(charset.TIS620, charset.LangThai)
	b.SetBytes(int64(len(page)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc := htmlx.Parse(page, "http://self.example/")
		if len(doc.Links) == 0 {
			b.Fatal("no links")
		}
	}
}

func BenchmarkPageSynthesis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = textgen.HTMLPage(textgen.PageSpec{
			Lang: charset.LangThai, Charset: charset.TIS620,
			DeclaredCharset: charset.TIS620, Paragraphs: 3,
		}, rng.New2(1, uint64(i)))
	}
}

func BenchmarkSpaceGeneration50k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := webgraph.Generate(webgraph.ThaiLike(50000, uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulationSoft50k(b *testing.B) {
	space, err := webgraph.Generate(webgraph.ThaiLike(50000, 3))
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{
		Strategy:   core.SoftFocused{},
		Classifier: core.MetaClassifier{Target: charset.LangThai},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(space, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Crawled), "pages/op")
	}
}

func BenchmarkFrontierFIFO(b *testing.B)   { benchFrontier(b, frontier.NewFIFO[uint32]()) }
func BenchmarkFrontierBucket(b *testing.B) { benchFrontier(b, frontier.NewBucket[uint32]()) }
func BenchmarkFrontierHeap(b *testing.B)   { benchFrontier(b, frontier.NewHeap[uint32]()) }

func benchFrontier(b *testing.B, q frontier.Queue[uint32]) {
	b.Helper()
	r := rng.New(17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(uint32(i), -float64(r.Intn(4)))
		if i%2 == 1 {
			q.Pop()
		}
	}
}

func BenchmarkFrontierIndexedHeap(b *testing.B) {
	q := frontier.NewIndexedHeap[uint32]()
	r := rng.New(17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Re-push a bounded key space to exercise the upgrade path.
		q.Push(uint32(i%65536), -float64(r.Intn(4)))
		if i%2 == 1 {
			q.Pop()
		}
	}
}

func BenchmarkCrawlogWrite(b *testing.B) {
	space, err := webgraph.Generate(webgraph.ThaiLike(5000, 5))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := crawlog.WriteSpace(&buf, space); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

func BenchmarkCrawlogReplay(b *testing.B) {
	space, err := webgraph.Generate(webgraph.ThaiLike(5000, 5))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := crawlog.WriteSpace(&buf, space); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := crawlog.NewReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := crawlog.BuildSpace(r); err != nil {
			b.Fatal(err)
		}
	}
}
