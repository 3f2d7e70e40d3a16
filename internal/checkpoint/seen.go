package checkpoint

import "sort"

// Seen is the live crawler's visited set: the exact set of URLs the
// crawl has claimed. A checkpoint stores it as its sorted URL list
// (State.VisitedURLs), and Restore rebuilds it from that list.
type Seen struct {
	exact map[string]bool
}

// NewSeen creates an empty seen set.
func NewSeen() *Seen {
	return &Seen{exact: make(map[string]bool)}
}

// Has reports whether url was Added before.
func (s *Seen) Has(url string) bool { return s.exact[url] }

// Add marks url seen.
func (s *Seen) Add(url string) { s.exact[url] = true }

// Len returns the number of distinct URLs added.
func (s *Seen) Len() int { return len(s.exact) }

// URLs returns every seen URL, sorted — the deterministic form the
// checkpoint encodes.
func (s *Seen) URLs() []string {
	out := make([]string, 0, len(s.exact))
	for u := range s.exact {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// Restore adds a checkpoint's URLs to the set.
func (s *Seen) Restore(urls []string) {
	for _, u := range urls {
		s.Add(u)
	}
}
