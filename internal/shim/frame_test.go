package shim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"pfuzzer/internal/trace"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {0}, []byte("hello"), bytes.Repeat([]byte{0xAB}, 4096)}
	for _, p := range payloads {
		var b bytes.Buffer
		if err := writeFrame(&b, fExec, p); err != nil {
			t.Fatalf("writeFrame(%d bytes): %v", len(p), err)
		}
		var buf []byte
		typ, got, err := readFrame(&b, &buf)
		if err != nil {
			t.Fatalf("readFrame(%d bytes): %v", len(p), err)
		}
		if typ != fExec || !bytes.Equal(got, p) {
			t.Errorf("round trip of %d bytes: type %q payload %q", len(p), typ, got)
		}
		if b.Len() != 0 {
			t.Errorf("round trip of %d bytes left %d trailing", len(p), b.Len())
		}
	}
}

// TestFrameTruncation cuts an encoded frame at every possible byte
// boundary: only the zero-length cut is a clean EOF, everything else
// must surface as an unexpected EOF, never a misparse.
func TestFrameTruncation(t *testing.T) {
	var b bytes.Buffer
	if err := writeFrame(&b, fCmp, []byte("payload-bytes")); err != nil {
		t.Fatal(err)
	}
	whole := b.Bytes()
	for cut := 0; cut < len(whole); cut++ {
		var buf []byte
		_, _, err := readFrame(bytes.NewReader(whole[:cut]), &buf)
		if cut == 0 {
			if err != io.EOF {
				t.Errorf("cut at 0: got %v, want io.EOF", err)
			}
			continue
		}
		if err != io.ErrUnexpectedEOF {
			t.Errorf("cut at %d: got %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestFrameBadCRC(t *testing.T) {
	var b bytes.Buffer
	if err := writeFrame(&b, fCmp, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	whole := b.Bytes()
	// Flip one bit in every payload and CRC position; each must fail
	// as a protocol error.
	for i := 5; i < len(whole); i++ {
		mut := append([]byte(nil), whole...)
		mut[i] ^= 0x40
		var buf []byte
		_, _, err := readFrame(bytes.NewReader(mut), &buf)
		if !errors.Is(err, errProto) {
			t.Errorf("bit flip at %d: got %v, want protocol error", i, err)
		}
	}
}

func TestFrameOversize(t *testing.T) {
	var hdr [5]byte
	hdr[0] = fExec
	binary.LittleEndian.PutUint32(hdr[1:], maxFrame+1)
	var buf []byte
	_, _, err := readFrame(bytes.NewReader(hdr[:]), &buf)
	if !errors.Is(err, errProto) {
		t.Errorf("oversize frame: got %v, want protocol error", err)
	}
	if err := writeFrame(io.Discard, fExec, make([]byte, maxFrame+1)); err == nil {
		t.Errorf("writeFrame accepted an oversize payload")
	}
}

func TestMagic(t *testing.T) {
	var b bytes.Buffer
	if err := writeMagic(&b); err != nil {
		t.Fatal(err)
	}
	if err := readMagic(&b); err != nil {
		t.Fatalf("readMagic: %v", err)
	}
	if err := readMagic(strings.NewReader("NOTSHIM\n")); !errors.Is(err, errProto) {
		t.Errorf("wrong magic: got %v, want protocol error", err)
	}
	if err := readMagic(strings.NewReader("PFS")); err == nil {
		t.Errorf("short magic: want error")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	for _, m := range []helloMsg{
		{Version: 1, Blocks: 0, Name: "ini"},
		{Version: 7, Blocks: 4242, Name: ""},
		{Version: 1, Blocks: 1, Name: strings.Repeat("x", 300)},
	} {
		got, err := parseHello(appendHello(nil, m))
		if err != nil {
			t.Fatalf("parseHello(%+v): %v", m, err)
		}
		if got != m {
			t.Errorf("hello round trip: got %+v, want %+v", got, m)
		}
	}
}

func TestExecRoundTrip(t *testing.T) {
	for _, m := range []execMsg{
		{ExecSteps: 0, Input: nil},
		{ExecSteps: 1000, Input: []byte("while(1){}")},
	} {
		got, err := parseExec(appendExec(nil, m))
		if err != nil {
			t.Fatalf("parseExec(%+v): %v", m, err)
		}
		if got.ExecSteps != m.ExecSteps || !bytes.Equal(got.Input, m.Input) {
			t.Errorf("exec round trip: got %+v, want %+v", got, m)
		}
	}
}

func TestCmpRoundTrip(t *testing.T) {
	msgs := []cmpMsg{
		{Kind: trace.CmpCharEq, Matched: true, Stack: 3, Index: 7, Last: 7,
			Actual: []byte("a"), Expected: []byte("a")},
		{Kind: trace.CmpCharEq, Matched: false, Stack: 0, Index: 0, Last: 0,
			Actual: []byte("a"), Expected: []byte("b")},
		{Kind: trace.CmpCharRange, Matched: true, Stack: 1, Index: 2, Last: 2,
			Actual: []byte("5"), Expected: []byte("09")},
		{Kind: trace.CmpCharSet, Matched: false, Stack: 9, Index: 4, Last: 4,
			Actual: []byte("z"), Expected: []byte(" \t\n")},
		{Kind: trace.CmpCharSet, Matched: false, Stack: 0, Index: 0, Last: 0,
			Actual: []byte("q"), Expected: nil},
		{Kind: trace.CmpStrEq, Matched: true, Stack: 2, Index: 5, Last: 9,
			Actual: []byte("while"), Expected: []byte("while")},
		{Kind: trace.CmpStrEq, Matched: false, Stack: 2, Index: 5, Last: 5,
			Actual: []byte("w"), Expected: []byte("while")},
	}
	for _, m := range msgs {
		got, err := parseCmp(appendCmp(nil, m))
		if err != nil {
			t.Fatalf("parseCmp(%+v): %v", m, err)
		}
		if got.Kind != m.Kind || got.Matched != m.Matched || got.Stack != m.Stack ||
			got.Index != m.Index || got.Last != m.Last ||
			!bytes.Equal(got.Actual, m.Actual) || !bytes.Equal(got.Expected, m.Expected) {
			t.Errorf("cmp round trip: got %+v, want %+v", got, m)
		}
	}
}

// TestCmpValidation feeds structurally invalid comparisons through the
// parser; each must be rejected as a protocol error.
func TestCmpValidation(t *testing.T) {
	bad := []cmpMsg{
		// Lying about the outcome.
		{Kind: trace.CmpCharEq, Matched: false, Index: 1, Last: 1, Actual: []byte("a"), Expected: []byte("a")},
		{Kind: trace.CmpCharEq, Matched: true, Index: 1, Last: 1, Actual: []byte("a"), Expected: []byte("b")},
		{Kind: trace.CmpStrEq, Matched: false, Index: 1, Last: 2, Actual: []byte("ab"), Expected: []byte("ab")},
		// Structural violations.
		{Kind: trace.CmpCharEq, Index: 1, Last: 2, Actual: []byte("a"), Expected: []byte("a"), Matched: true},
		{Kind: trace.CmpCharEq, Index: 1, Last: 1, Actual: []byte("ab"), Expected: []byte("a")},
		{Kind: trace.CmpCharEq, Index: 1, Last: 1, Actual: []byte("a"), Expected: []byte("ab"), Matched: false},
		{Kind: trace.CmpCharRange, Index: 1, Last: 1, Actual: []byte("a"), Expected: []byte("abc")},
		{Kind: trace.CmpStrEq, Index: 1, Last: 1, Actual: nil, Expected: []byte("x")},
		{Kind: trace.CmpStrEq, Index: 3, Last: 1, Actual: []byte("ab"), Expected: []byte("ab")},
		{Kind: trace.CmpStrEq, Index: 1, Last: 4, Actual: []byte("a"), Expected: []byte("a"), Matched: true},
		{Kind: trace.CmpKind(9), Index: 1, Last: 1, Actual: []byte("a"), Expected: []byte("a")},
		{Kind: trace.CmpCharEq, Stack: maxStack + 1, Index: 1, Last: 1, Actual: []byte("a"), Expected: []byte("a"), Matched: true},
	}
	for i, m := range bad {
		if _, err := parseCmp(appendCmp(nil, m)); !errors.Is(err, errProto) {
			t.Errorf("bad cmp %d (%+v): got %v, want protocol error", i, m, err)
		}
	}
}

func TestEOFRoundTrip(t *testing.T) {
	for _, m := range []eofMsg{{Stack: 0, Index: 0}, {Stack: 12, Index: 1 << 40}, {Stack: 1, Index: -3}} {
		got, err := parseEOF(appendEOF(nil, m))
		if err != nil {
			t.Fatalf("parseEOF(%+v): %v", m, err)
		}
		if got != m {
			t.Errorf("eof round trip: got %+v, want %+v", got, m)
		}
	}
	if _, err := parseEOF(appendEOF(nil, eofMsg{Stack: maxStack + 1})); !errors.Is(err, errProto) {
		t.Errorf("oversize EOF stack: got %v, want protocol error", err)
	}
}

func TestBlocksRoundTrip(t *testing.T) {
	for _, ids := range [][]uint32{nil, {1}, {7, 7, 9, 1 << 30}} {
		got, err := parseBlocks(appendBlocks(nil, ids), nil)
		if err != nil {
			t.Fatalf("parseBlocks(%v): %v", ids, err)
		}
		if len(got) != len(ids) {
			t.Fatalf("blocks round trip: got %v, want %v", got, ids)
		}
		for i := range ids {
			if got[i] != ids[i] {
				t.Errorf("blocks round trip: got %v, want %v", got, ids)
			}
		}
	}
	// A count that disagrees with the payload size must fail.
	enc := appendBlocks(nil, []uint32{1, 2, 3})
	if _, err := parseBlocks(enc[:len(enc)-2], nil); err == nil {
		t.Errorf("truncated blocks payload parsed")
	}
	binary.LittleEndian.PutUint32(enc, 99)
	if _, err := parseBlocks(enc, nil); err == nil {
		t.Errorf("inflated blocks count parsed")
	}
}

func TestResultRoundTrip(t *testing.T) {
	for _, m := range []resultMsg{
		{Exit: 0, MaxAccess: -1, LenUsed: false, MaxDepth: 0},
		{Exit: 1, MaxAccess: 41, LenUsed: true, MaxDepth: 17},
		{Exit: -7, MaxAccess: 0, LenUsed: false, MaxDepth: 1},
	} {
		got, err := parseResult(appendResult(nil, m))
		if err != nil {
			t.Fatalf("parseResult(%+v): %v", m, err)
		}
		if got != m {
			t.Errorf("result round trip: got %+v, want %+v", got, m)
		}
	}
	if _, err := parseResult(appendResult(nil, resultMsg{MaxDepth: maxDepthL + 1})); !errors.Is(err, errProto) {
		t.Errorf("oversize result depth: got %v, want protocol error", err)
	}
}

// TestParseTrailingBytes: every parser must reject payloads with
// trailing bytes rather than silently ignoring them.
func TestParseTrailingBytes(t *testing.T) {
	cases := []struct {
		name  string
		parse func([]byte) error
		enc   []byte
	}{
		{"hello", func(p []byte) error { _, err := parseHello(p); return err },
			appendHello(nil, helloMsg{Version: 1, Name: "x"})},
		{"exec", func(p []byte) error { _, err := parseExec(p); return err },
			appendExec(nil, execMsg{Input: []byte("y")})},
		{"cmp", func(p []byte) error { _, err := parseCmp(p); return err },
			appendCmp(nil, cmpMsg{Kind: trace.CmpCharEq, Matched: true, Index: 1, Last: 1, Actual: []byte("a"), Expected: []byte("a")})},
		{"eof", func(p []byte) error { _, err := parseEOF(p); return err },
			appendEOF(nil, eofMsg{Index: 9})},
		{"result", func(p []byte) error { _, err := parseResult(p); return err },
			appendResult(nil, resultMsg{MaxAccess: -1})},
	}
	for _, tc := range cases {
		if err := tc.parse(append(tc.enc, 0xEE)); err == nil {
			t.Errorf("%s: payload with trailing byte parsed", tc.name)
		}
		for cut := 0; cut < len(tc.enc); cut++ {
			if err := tc.parse(tc.enc[:cut]); err == nil {
				t.Errorf("%s: truncation at %d parsed", tc.name, cut)
			}
		}
	}
}

// seedFrames returns one encoded frame per message of the round-trip
// tests above, plus a whole execution's reply stream: FuzzShimFrame's
// checked-in seeds.
func seedFrames(t testing.TB) [][]byte {
	t.Helper()
	frame := func(typ byte, payload []byte) []byte {
		var b bytes.Buffer
		if err := writeFrame(&b, typ, payload); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	cmp := appendCmp(nil, cmpMsg{Kind: trace.CmpStrEq, Matched: true, Stack: 2, Index: 5, Last: 9,
		Actual: []byte("while"), Expected: []byte("while")})
	result := appendResult(nil, resultMsg{Exit: 1, MaxAccess: 41, LenUsed: true, MaxDepth: 17})
	var stream []byte
	for _, f := range [][]byte{
		frame(fCmp, cmp),
		frame(fEOF, appendEOF(nil, eofMsg{Stack: 1, Index: -3})),
		frame(fBlocks, appendBlocks(nil, []uint32{7, 7, 9, 1 << 30})),
		frame(fResult, result),
	} {
		stream = append(stream, f...)
	}
	return [][]byte{
		frame(fHello, appendHello(nil, helloMsg{Version: 1, Blocks: 4242, Name: "ini"})),
		frame(fExec, appendExec(nil, execMsg{ExecSteps: 1000, Input: []byte("while(1){}")})),
		frame(fCmp, cmp),
		frame(fCmp, appendCmp(nil, cmpMsg{Kind: trace.CmpCharRange, Matched: true, Stack: 1, Index: 2, Last: 2,
			Actual: []byte("5"), Expected: []byte("09")})),
		frame(fCmp, appendCmp(nil, cmpMsg{Kind: trace.CmpCharSet, Stack: 9, Index: 4, Last: 4,
			Actual: []byte("z"), Expected: []byte(" \t\n")})),
		frame(fEOF, appendEOF(nil, eofMsg{Stack: 12, Index: 1 << 40})),
		frame(fBlocks, appendBlocks(nil, nil)),
		frame(fResult, result),
		frame(fFail, []byte("unknown subject")),
		stream,
	}
}

// FuzzShimFrame feeds arbitrary bytes, as a child's reply stream, to
// readFrame and each frame's payload to the parser for its type. The
// CRC keeps a mutated frame away from the parsers, so the bytes also
// go to them directly, the first byte as the frame type. Nothing may
// panic, and every payload a parser accepts must re-encode to its own
// bytes through the matching append function.
func FuzzShimFrame(f *testing.F) {
	for _, b := range seedFrames(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var buf []byte
		r := bytes.NewReader(raw)
		for {
			typ, payload, err := readFrame(r, &buf)
			if err != nil {
				break
			}
			checkPayloadRoundTrip(t, typ, payload)
		}
		if len(raw) > 0 {
			checkPayloadRoundTrip(t, raw[0], raw[1:])
		}
	})
}

// checkPayloadRoundTrip parses p as a frame of type typ and, if the
// parser accepts it, checks that it re-encodes to p.
func checkPayloadRoundTrip(t *testing.T, typ byte, p []byte) {
	var again []byte
	switch typ {
	case fHello:
		m, err := parseHello(p)
		if err != nil {
			return
		}
		again = appendHello(nil, m)
	case fExec:
		m, err := parseExec(p)
		if err != nil {
			return
		}
		again = appendExec(nil, m)
	case fCmp:
		m, err := parseCmp(p)
		if err != nil {
			return
		}
		again = appendCmp(nil, m)
	case fEOF:
		m, err := parseEOF(p)
		if err != nil {
			return
		}
		again = appendEOF(nil, m)
	case fBlocks:
		ids, err := parseBlocks(p, nil)
		if err != nil {
			return
		}
		again = appendBlocks(nil, ids)
	case fResult:
		m, err := parseResult(p)
		if err != nil {
			return
		}
		again = appendResult(nil, m)
	default:
		return
	}
	if !bytes.Equal(again, p) {
		t.Fatalf("frame %q payload %x re-encodes to %x", typ, p, again)
	}
}
