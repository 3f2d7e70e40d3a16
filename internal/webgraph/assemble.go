package webgraph

import (
	"fmt"

	"langcrawl/internal/charset"
)

// RawSpace is the fully-materialized input to Assemble: per-page
// property arrays plus adjacency lists. It is how external producers —
// chiefly crawl-log replay — construct a Space without going through the
// synthetic generator.
type RawSpace struct {
	Target   charset.Language
	Seed     uint64
	Sites    []Site
	SiteOf   []SiteID
	Lang     []charset.Language
	Charset  []charset.Charset
	Declared []charset.Charset
	Status   []uint16
	Size     []uint32
	Outlinks [][]PageID
	Seeds    []PageID
}

// Assemble builds a validated Space from raw arrays: it flattens the
// adjacency lists to CSR, indexes hosts, strips outlinks from non-OK
// pages (error pages were never parsed, so they contribute no links),
// drops seeds that are not relevant OK home pages, and counts the
// relevant-OK coverage denominator.
func Assemble(raw RawSpace) (*Space, error) {
	n := len(raw.SiteOf)
	if len(raw.Outlinks) != n {
		return nil, fmt.Errorf("webgraph: Outlinks length %d != pages %d", len(raw.Outlinks), n)
	}
	s := &Space{
		Seed:     raw.Seed,
		Target:   raw.Target,
		Sites:    raw.Sites,
		SiteOf:   raw.SiteOf,
		Lang:     raw.Lang,
		Charset:  raw.Charset,
		Declared: raw.Declared,
		Status:   raw.Status,
		Size:     raw.Size,
	}
	s.byHost = make(map[string]SiteID, len(s.Sites))
	for i := range s.Sites {
		s.byHost[s.Sites[i].Host] = SiteID(i)
	}

	total := 0
	for id, links := range raw.Outlinks {
		if raw.Status[id] == 200 {
			total += len(links)
		}
	}
	s.words = make([]uint64, n+1)
	s.links = make([]PageID, 0, total)
	for id := 0; id < n; id++ {
		s.words[id] = pageWord(uint64(len(s.links)), s.Status[id], s.Charset[id], s.Declared[id], s.Lang[id])
		if raw.Status[id] == 200 {
			s.links = append(s.links, raw.Outlinks[id]...)
		}
	}
	s.words[n] = uint64(len(s.links))

	for _, seed := range raw.Seeds {
		if int(seed) < n && s.Status[seed] == 200 && s.Lang[seed] == s.Target {
			s.Seeds = append(s.Seeds, seed)
		}
	}
	for id := 0; id < n; id++ {
		if s.Status[id] == 200 && s.Lang[id] == s.Target {
			s.relevantOK++
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
