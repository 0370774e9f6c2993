// Package registry wires every subject to its token inventory and
// tokenizer, so the evaluation harness, commands and benchmarks can
// iterate over the paper's Table 1 uniformly. Entries pass through
// Register, which validates the contract every engine layer assumes
// (see internal/conformance for the machine-checked half) and rejects
// duplicates instead of silently shadowing an existing subject; the
// built-in groups register at package init and an invalid built-in is
// a panic at startup, not a misbehaving campaign later.
package registry

import (
	"fmt"
	"sync"

	"pfuzzer/internal/mine"
	"pfuzzer/internal/subject"
	"pfuzzer/internal/subjects/cjson"
	"pfuzzer/internal/subjects/csvp"
	"pfuzzer/internal/subjects/dotg"
	"pfuzzer/internal/subjects/expr"
	"pfuzzer/internal/subjects/httpreq"
	"pfuzzer/internal/subjects/ini"
	"pfuzzer/internal/subjects/mjs"
	"pfuzzer/internal/subjects/paren"
	"pfuzzer/internal/subjects/sexpr"
	"pfuzzer/internal/subjects/tinyc"
	"pfuzzer/internal/subjects/urlp"
	"pfuzzer/internal/tokens"
)

// Entry describes one subject.
type Entry struct {
	// Name is the subject's short name, matching Program.Name.
	Name string
	// New constructs the subject. Every registered constructor
	// returns a stateless value whose Run method is safe for
	// concurrent calls, so one Program may be shared across
	// goroutines (the conformance kit's determinism property checks
	// this).
	New func() subject.Program
	// Inventory is the subject's full token inventory.
	Inventory tokens.Inventory
	// Tokenize extracts inventory token names from an input.
	Tokenize func([]byte) map[string]bool
	// Lexer is the sequence-valued tokenizer the grammar miner uses
	// (core.Config.MineLexer): C-family subjects get a keyword-aware
	// SimpleLexer, the flat line formats a DelimLexer — so every
	// subject, not just the C-family ones, can be mined.
	Lexer mine.Lexer
	// PaperLoC is the subject's size in Table 1 (0 for extra subjects).
	PaperLoC int
	// Accessed is the version date in Table 1.
	Accessed string
}

// registered is the subject table: an insertion-ordered slice (the
// iteration order of All and the evaluation matrix) plus a name
// index. The mutex makes Register safe beside concurrent lookups —
// user code may register subjects lazily while fleet workers resolve
// entries.
var (
	mu         sync.RWMutex
	registered []Entry
	byName     = map[string]int{}
)

// Validate checks the parts of the registry contract a lookup can
// check: a non-empty name, a constructor whose Program echoes the
// entry's name and reports instrumented blocks, a non-empty token
// inventory, a tokenizer, and a mining lexer. The behavioural half of
// the contract — determinism, prefix rejection, lexer round-trip,
// engine agreement — is machine-checked by internal/conformance.
func Validate(e Entry) error {
	if e.Name == "" {
		return fmt.Errorf("registry: entry with empty name")
	}
	if e.New == nil {
		return fmt.Errorf("registry: %s: nil constructor", e.Name)
	}
	prog := e.New()
	if prog == nil {
		return fmt.Errorf("registry: %s: constructor returned nil", e.Name)
	}
	if prog.Name() != e.Name {
		return fmt.Errorf("registry: %s: constructor builds a program named %q", e.Name, prog.Name())
	}
	if prog.Blocks() <= 0 {
		return fmt.Errorf("registry: %s: no instrumented blocks", e.Name)
	}
	if e.Inventory.Count() == 0 {
		return fmt.Errorf("registry: %s: empty token inventory", e.Name)
	}
	if e.Tokenize == nil {
		return fmt.Errorf("registry: %s: nil tokenizer", e.Name)
	}
	if e.Lexer == nil {
		return fmt.Errorf("registry: %s: nil mining lexer", e.Name)
	}
	return nil
}

// Register validates e and adds it to the subject table. A duplicate
// name is an error — the previous behaviour of silently shadowing an
// entry hid wiring mistakes until a campaign ran the wrong parser.
func Register(e Entry) error {
	if err := Validate(e); err != nil {
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := byName[e.Name]; dup {
		return fmt.Errorf("registry: duplicate subject %q", e.Name)
	}
	byName[e.Name] = len(registered)
	registered = append(registered, e)
	return nil
}

// MustRegister is Register for init-time wiring: it panics on error.
func MustRegister(e Entry) {
	if err := Register(e); err != nil {
		panic(err)
	}
}

func init() {
	for _, group := range [][]Entry{Paper(), Extra(), Grammar()} {
		for _, e := range group {
			MustRegister(e)
		}
	}
}

// wordNames extracts the keyword names (letter-initial literals of
// length >= 2) from an inventory, the word set a mining lexer should
// treat as distinct token classes. Open-class entries (identifier,
// number, string, …) are excluded — a Lit's Len always equals its
// spelling length while the Class entries count under a different
// length — so an input containing the literal word "number" does not
// collide with the lexer's own number class.
func wordNames(inv tokens.Inventory) []string {
	var out []string
	for _, t := range inv {
		if len(t.Name) >= 2 && t.Len == len(t.Name) &&
			(t.Name[0] >= 'a' && t.Name[0] <= 'z' ||
				t.Name[0] >= 'A' && t.Name[0] <= 'Z') {
			out = append(out, t.Name)
		}
	}
	return out
}

// Paper returns the five evaluation subjects in Table 1 order.
func Paper() []Entry {
	return []Entry{
		{Name: "ini", New: func() subject.Program { return ini.New() },
			Inventory: ini.Inventory, Tokenize: ini.Tokenize,
			Lexer:    mine.DelimLexer("[]=;\n", "text"),
			PaperLoC: 293, Accessed: "2018-10-25"},
		{Name: "csv", New: func() subject.Program { return csvp.New() },
			Inventory: csvp.Inventory, Tokenize: csvp.Tokenize,
			Lexer:    mine.DelimLexer(",\n", "field"),
			PaperLoC: 297, Accessed: "2018-10-25"},
		{Name: "cjson", New: func() subject.Program { return cjson.New() },
			Inventory: cjson.Inventory, Tokenize: cjson.Tokenize,
			Lexer:    mine.SimpleLexer(wordNames(cjson.Inventory)),
			PaperLoC: 2483, Accessed: "2018-10-25"},
		{Name: "tinyc", New: func() subject.Program { return tinyc.New() },
			Inventory: tinyc.Inventory, Tokenize: tinyc.Tokenize,
			Lexer:    mine.SimpleLexer(wordNames(tinyc.Inventory)),
			PaperLoC: 191, Accessed: "2018-10-25"},
		{Name: "mjs", New: func() subject.Program { return mjs.New() },
			Inventory: mjs.Inventory, Tokenize: mjs.Tokenize,
			Lexer:    mine.SimpleLexer(wordNames(mjs.Inventory)),
			PaperLoC: 10920, Accessed: "2018-06-21"},
	}
}

// Extra returns the additional subjects used by examples and tests:
// the §2 expression parser and the §3 bracket language.
func Extra() []Entry {
	return []Entry{
		{Name: "expr", New: func() subject.Program { return expr.New() },
			Inventory: expr.Inventory, Tokenize: expr.Tokenize,
			Lexer: mine.SimpleLexer(nil)},
		{Name: "paren", New: func() subject.Program { return paren.New() },
			Inventory: paren.Inventory, Tokenize: paren.Tokenize,
			Lexer: mine.SimpleLexer(nil)},
	}
}

// Grammar returns the grammar-zoo subjects added beyond the paper's
// evaluation: an RFC-3986-ish URL parser, a Lisp s-expression reader,
// an HTTP/1.1 request-head parser and a Graphviz DOT subset. They
// broaden the token vocabularies the engines are exercised against
// and all pass the internal/conformance kit.
func Grammar() []Entry {
	return []Entry{
		{Name: "urlp", New: func() subject.Program { return urlp.New() },
			Inventory: urlp.Inventory, Tokenize: urlp.Tokenize,
			Lexer: mine.SimpleLexer(wordNames(urlp.Inventory))},
		{Name: "sexpr", New: func() subject.Program { return sexpr.New() },
			Inventory: sexpr.Inventory, Tokenize: sexpr.Tokenize,
			Lexer: mine.SimpleLexer(wordNames(sexpr.Inventory))},
		{Name: "httpreq", New: func() subject.Program { return httpreq.New() },
			Inventory: httpreq.Inventory, Tokenize: httpreq.Tokenize,
			Lexer: mine.DelimLexer(" :/?=&\n", "text")},
		{Name: "dotg", New: func() subject.Program { return dotg.New() },
			Inventory: dotg.Inventory, Tokenize: dotg.Tokenize,
			Lexer: mine.SimpleLexer(wordNames(dotg.Inventory))},
	}
}

// All returns every registered subject in registration order.
func All() []Entry {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Entry, len(registered))
	copy(out, registered)
	return out
}

// Get returns the entry with the given name.
func Get(name string) (Entry, bool) {
	mu.RLock()
	defer mu.RUnlock()
	i, ok := byName[name]
	if !ok {
		return Entry{}, false
	}
	return registered[i], true
}

// NewProgram constructs a fresh Program for the named subject. It is
// the lookup the self-shim server (cmd/pshim) answers handshakes
// with: the child resolves the requested subject by name and serves
// it, or reports an error frame if the name is unknown.
func NewProgram(name string) (subject.Program, error) {
	e, ok := Get(name)
	if !ok {
		return nil, fmt.Errorf("registry: unknown subject %q", name)
	}
	return e.New(), nil
}

// Names returns the names of all registered subjects.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, len(registered))
	for i, e := range registered {
		out[i] = e.Name
	}
	return out
}
