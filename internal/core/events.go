package core

// EventKind discriminates the campaign events the engine emits
// through Config.Events — the typed stream that replaced the original
// OnValid/DebugPop callback pair.
type EventKind int

const (
	// EventValid reports a new valid input entering the corpus.
	// Input, Execs and NewBlocks are set.
	EventValid EventKind = iota
	// EventPop reports a queue pop: Input, Score, Execs and QueueLen
	// are set.
	EventPop
	// EventPhase reports a hybrid phase-regime switch: Mining is the
	// new regime, Execs the boundary's execution index.
	EventPhase
	// EventCache reports the prefix-decided execution cache's
	// cumulative counters: Hits, Misses and Execs are set. One report
	// is emitted at the end of every Step of a cache-enabled campaign,
	// so the stream is monotone and the final report's Hits+Misses
	// equals the campaign's execution count. Campaigns with CacheOff
	// emit none.
	EventCache
)

// Event is one typed campaign event. Which fields are meaningful
// depends on Kind; the rest are zero. The Input slice aliases
// campaign-owned memory and is valid for the duration of the callback
// only — copy it to retain it.
type Event struct {
	Kind      EventKind
	Input     []byte
	Execs     int
	NewBlocks int     // EventValid: blocks this input covered first
	Score     float64 // EventPop: the popped candidate's score
	QueueLen  int     // EventPop: queue length after the pop
	Mining    bool    // EventPhase: entering (true) or leaving (false) a mining burst
	Hits      int     // EventCache: cumulative cache hits
	Misses    int     // EventCache: cumulative cache misses
}

// emit delivers ev to the configured event sink, if any. Every
// emission happens on the goroutine stepping the campaign, so a sink
// needs no synchronization of its own.
func (f *Fuzzer) emit(ev Event) {
	if f.cfg.Events != nil {
		f.cfg.Events(ev)
	}
}
