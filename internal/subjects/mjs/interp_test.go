package mjs

import (
	"math"
	"testing"

	"pfuzzer/internal/trace"
)

// evalProgram parses and runs src, returning the interpreter's global
// scope for inspection.
func evalProgram(t *testing.T, src string) *env {
	t.Helper()
	tr := trace.New([]byte(src), trace.Full())
	p := newParser(tr)
	prog, ok := p.program()
	if !ok {
		t.Fatalf("program %q failed to parse", src)
	}
	ip := newInterp(tr, 100000)
	ip.run(prog)
	return ip.global
}

func wantNum(t *testing.T, sc *env, name string, want float64) {
	t.Helper()
	v, ok := sc.lookup(name)
	if !ok {
		t.Fatalf("%s not defined", name)
	}
	f, isNum := v.(float64)
	if !isNum {
		t.Fatalf("%s = %#v, want number", name, v)
	}
	if f != want && !(math.IsNaN(f) && math.IsNaN(want)) {
		t.Errorf("%s = %v, want %v", name, f, want)
	}
}

func wantStr(t *testing.T, sc *env, name, want string) {
	t.Helper()
	v, _ := sc.lookup(name)
	s, isStr := v.(string)
	if !isStr || s != want {
		t.Errorf("%s = %#v, want %q", name, v, want)
	}
}

func wantBool(t *testing.T, sc *env, name string, want bool) {
	t.Helper()
	v, _ := sc.lookup(name)
	b, isBool := v.(bool)
	if !isBool || b != want {
		t.Errorf("%s = %#v, want %v", name, v, want)
	}
}

func TestArithmetic(t *testing.T) {
	sc := evalProgram(t, `
		a = 1 + 2 * 3;
		b = (1 + 2) * 3;
		c = 10 / 4;
		d = 10 % 3;
		e = -5 + +2;
		f = 2 + 3 * 4 - 6 / 2;
	`)
	wantNum(t, sc, "a", 7)
	wantNum(t, sc, "b", 9)
	wantNum(t, sc, "c", 2.5)
	wantNum(t, sc, "d", 1)
	wantNum(t, sc, "e", -3)
	wantNum(t, sc, "f", 11)

	sc = evalProgram(t, `g = 7 % 0.7; h = 7 % -0.5; i = 7 % 0; j = 7 % 2.5;`)
	wantNum(t, sc, "g", math.NaN())
	wantNum(t, sc, "h", math.NaN())
	wantNum(t, sc, "i", math.NaN())
	wantNum(t, sc, "j", 1)
}

func TestStringsAndConcat(t *testing.T) {
	sc := evalProgram(t, `
		s = "a" + "b" + 1;
		n = "abc".length;
		i = "hello".indexOf("ll");
		c = "xyz".charAt(1);
	`)
	wantStr(t, sc, "s", "ab1")
	wantNum(t, sc, "n", 3)
	wantNum(t, sc, "i", 2)
	wantStr(t, sc, "c", "y")
}

func TestComparisonsAndEquality(t *testing.T) {
	sc := evalProgram(t, `
		a = 1 < 2;
		b = "b" > "a";
		c = 1 == "1";
		d = 1 === 1;
		e = null == undefined;
		f = null === undefined;
		g = 1 !== 2;
	`)
	wantBool(t, sc, "a", true)
	wantBool(t, sc, "b", true)
	wantBool(t, sc, "c", true)
	wantBool(t, sc, "d", true)
	wantBool(t, sc, "e", true)
	wantBool(t, sc, "f", false)
	wantBool(t, sc, "g", true)
}

func TestBitwiseAndShifts(t *testing.T) {
	sc := evalProgram(t, `
		a = 6 & 3;
		b = 6 | 3;
		c = 6 ^ 3;
		d = 1 << 4;
		e = 256 >> 4;
		f = -1 >>> 28;
		g = ~5;
	`)
	wantNum(t, sc, "a", 2)
	wantNum(t, sc, "b", 7)
	wantNum(t, sc, "c", 5)
	wantNum(t, sc, "d", 16)
	wantNum(t, sc, "e", 16)
	wantNum(t, sc, "f", 15)
	wantNum(t, sc, "g", -6)
}

func TestControlFlow(t *testing.T) {
	sc := evalProgram(t, `
		n = 0;
		for (i = 0; i < 5; i++) { n = n + i; }
		m = 0;
		while (m < 7) { m++; }
		k = 0;
		do { k = k + 2; } while (k < 5);
		b = 0;
		for (j = 0; j < 100; j++) { if (j === 3) break; b = j; }
		c = 0;
		for (q = 0; q < 5; q++) { if (q % 2 === 0) continue; c = c + q; }
	`)
	wantNum(t, sc, "n", 10)
	wantNum(t, sc, "m", 7)
	wantNum(t, sc, "k", 6)
	wantNum(t, sc, "b", 2)
	wantNum(t, sc, "c", 4)
}

func TestSwitchFallthrough(t *testing.T) {
	sc := evalProgram(t, `
		r = 0;
		switch (2) {
		case 1: r = r + 1;
		case 2: r = r + 10;
		case 3: r = r + 100; break;
		case 4: r = r + 1000;
		default: r = r + 10000;
		}
		s = 0;
		switch ("zz") { default: s = 42; }
	`)
	wantNum(t, sc, "r", 110) // matches case 2, falls through 3, breaks
	wantNum(t, sc, "s", 42)
}

func TestFunctionsAndClosures(t *testing.T) {
	sc := evalProgram(t, `
		function add(a, b) { return a + b; }
		x = add(2, 3);
		function mkAdder(n) { return function (m) { return m + n; }; }
		y = mkAdder(10)(5);
		function fib(n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
		z = fib(10);
	`)
	wantNum(t, sc, "x", 5)
	wantNum(t, sc, "y", 15)
	wantNum(t, sc, "z", 55)
}

func TestObjectsAndArrays(t *testing.T) {
	sc := evalProgram(t, `
		o = {a: 1, b: {c: 2}};
		x = o.a + o.b.c;
		o.d = 9;
		y = o.d;
		arr = [1, 2, 3];
		l = arr.length;
		arr[3] = 10;
		m = arr[3] + arr[0];
		has = "a" in o;
		del = delete o.a;
		gone = "a" in o;
	`)
	wantNum(t, sc, "x", 3)
	wantNum(t, sc, "y", 9)
	wantNum(t, sc, "l", 3)
	wantNum(t, sc, "m", 11)
	wantBool(t, sc, "has", true)
	wantBool(t, sc, "del", true)
	wantBool(t, sc, "gone", false)
}

func TestForIn(t *testing.T) {
	sc := evalProgram(t, `
		sum = "";
		for (var k in {x: 1, y: 2}) { sum = sum + k; }
		n = 0;
		for (var i in [5, 6, 7]) { n = n + 1; }
	`)
	wantStr(t, sc, "sum", "xy") // deterministic (sorted) enumeration
	wantNum(t, sc, "n", 3)
}

func TestTryCatchFinallyThrow(t *testing.T) {
	sc := evalProgram(t, `
		r = 0; f = 0;
		try { throw 42; r = 1; } catch (e) { r = e; } finally { f = 1; }
		s = 0;
		try { s = 5; } finally { s = s + 1; }
		function g() { try { return 1; } finally { sideEffect = 7; } }
		t2 = g();
	`)
	wantNum(t, sc, "r", 42)
	wantNum(t, sc, "f", 1)
	wantNum(t, sc, "s", 6)
	wantNum(t, sc, "t2", 1)
	wantNum(t, sc, "sideEffect", 7)
}

func TestTypeofVoidTernaryLogical(t *testing.T) {
	sc := evalProgram(t, `
		a = typeof 1;
		b = typeof "s";
		c = typeof undefined;
		d = typeof null;
		e = typeof {};
		f = typeof print;
		g = 1 ? "yes" : "no";
		h = 0 || "fallback";
		i = 1 && 2;
	`)
	wantStr(t, sc, "a", "number")
	wantStr(t, sc, "b", "string")
	wantStr(t, sc, "c", "undefined")
	wantStr(t, sc, "d", "object")
	wantStr(t, sc, "e", "object")
	wantStr(t, sc, "f", "function")
	wantStr(t, sc, "g", "yes")
	wantStr(t, sc, "h", "fallback")
	wantNum(t, sc, "i", 2)
}

func TestBuiltins(t *testing.T) {
	sc := evalProgram(t, `
		a = Math.floor(3.9);
		b = Math.min(4, 2);
		c = Math.max(4, 2);
		d = Math.abs(-7);
		e = JSON.stringify([1, "x", true, null]);
		f = JSON.parse("[1,2,3]")[2];
		o = JSON.parse("{\"k\": 5}");
		g = o.k;
		h = String(12);
		i = Number("3.5");
		n = NaN;
		isNan = n != n;
	`)
	wantNum(t, sc, "a", 3)
	wantNum(t, sc, "b", 2)
	wantNum(t, sc, "c", 4)
	wantNum(t, sc, "d", 7)
	wantStr(t, sc, "e", `[1,"x",true,null]`)
	wantNum(t, sc, "f", 3)
	wantNum(t, sc, "g", 5)
	wantStr(t, sc, "h", "12")
	wantNum(t, sc, "i", 3.5)
	wantBool(t, sc, "isNan", true)
}

func TestNewAndInstanceof(t *testing.T) {
	sc := evalProgram(t, `
		function Point(x, y) { this.x = x; this.y = y; }
		p = new Point(3, 4);
		a = p.x + p.y;
		b = p instanceof Point;
		function Other() {}
		c = p instanceof Other;
	`)
	wantNum(t, sc, "a", 7)
	wantBool(t, sc, "b", true)
	wantBool(t, sc, "c", false)
}

func TestCompoundAssignAndIncDec(t *testing.T) {
	sc := evalProgram(t, `
		a = 10; a += 5; a -= 3; a *= 2; a /= 4; a %= 4;
		b = 1; b <<= 3; b >>= 1; b |= 3; b &= 6; b ^= 1;
		x = 5; pre = ++x; post = x++; final = x;
	`)
	wantNum(t, sc, "a", 2)
	wantNum(t, sc, "b", 7)
	wantNum(t, sc, "pre", 6)
	wantNum(t, sc, "post", 6)
	wantNum(t, sc, "final", 7)
}

func TestHexAndFloatLiterals(t *testing.T) {
	sc := evalProgram(t, `
		a = 0x1F;
		b = 1.5e2;
		c = 2E-2;
		d = 0.125;
	`)
	wantNum(t, sc, "a", 31)
	wantNum(t, sc, "b", 150)
	wantNum(t, sc, "c", 0.02)
	wantNum(t, sc, "d", 0.125)
}

func TestVarScoping(t *testing.T) {
	sc := evalProgram(t, `
		x = 1;
		{ let x2 = 2; x = x2; }
		function f() { var y = 10; x = x + y; }
		f();
	`)
	wantNum(t, sc, "x", 12)
}

func TestObjectKeys(t *testing.T) {
	sc := evalProgram(t, `
		ks = Object.keys({b: 1, a: 2});
		n = ks.length;
		first = ks[0];
	`)
	wantNum(t, sc, "n", 2)
	wantStr(t, sc, "first", "a") // sorted for determinism
}

func TestStepBudgetAborts(t *testing.T) {
	tr := trace.New([]byte("while (1) { x = x + 1; }"), trace.Full())
	p := newParser(tr)
	prog, ok := p.program()
	if !ok {
		t.Fatal("parse failed")
	}
	ip := newInterp(tr, 500)
	ip.run(prog) // must return, not hang
	if ip.sig != ctlAbort {
		t.Errorf("sig = %v, want ctlAbort", ip.sig)
	}
}
