package sim

import (
	"testing"

	"langcrawl/internal/charset"
	"langcrawl/internal/core"
	"langcrawl/internal/webgraph"
)

var visitSpace = mustGen(webgraph.ThaiLike(3000, 211))

func TestOnVisitMatchesCrawled(t *testing.T) {
	var order []webgraph.PageID
	res, err := Run(visitSpace, Config{
		Strategy:   core.BreadthFirst{},
		Classifier: core.MetaClassifier{Target: charset.LangThai},
		OnVisit:    func(id webgraph.PageID) { order = append(order, id) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != res.Crawled {
		t.Fatalf("OnVisit fired %d times for %d crawled pages", len(order), res.Crawled)
	}
	seen := make(map[webgraph.PageID]bool, len(order))
	for _, id := range order {
		if seen[id] {
			t.Fatalf("page %d visited twice", id)
		}
		seen[id] = true
	}
}

func TestTimedOnVisit(t *testing.T) {
	var order []webgraph.PageID
	res, err := RunTimed(visitSpace, TimedConfig{
		Config: Config{
			Strategy:   core.BreadthFirst{},
			Classifier: core.MetaClassifier{Target: charset.LangThai},
			OnVisit:    func(id webgraph.PageID) { order = append(order, id) },
		},
		Concurrency: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != res.Crawled {
		t.Fatalf("OnVisit fired %d times for %d crawled pages", len(order), res.Crawled)
	}
}
