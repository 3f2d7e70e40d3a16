package charset

// SplitCorpus exposes the chunk-boundary corpus to the external test
// package, which digests detection over it.
var SplitCorpus = splitCorpus
