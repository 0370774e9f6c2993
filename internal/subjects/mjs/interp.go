package mjs

import (
	"strconv"
	"strings"

	"pfuzzer/internal/taint"
	"pfuzzer/internal/trace"
)

// Runtime values: nil is JS null; undef is undefined; float64, string
// and bool map directly; *object covers objects, arrays and functions.
type value interface{}

type undef struct{}

var undefined = undef{}

// object is an mjs heap object.
type object struct {
	props   map[string]value
	elems   []value // array storage
	isArray bool
	fn      *closure                            // user-defined function
	builtin string                              // "Math", "JSON", "Object", "String", "Number", "print"
	bmember func(*interp, value, []value) value // native method
	ctor    *closure                            // constructor that produced this object
}

type closure struct {
	params []string
	body   []stmt
	env    *env
}

// env is a lexical scope chain.
type env struct {
	vars   map[string]value
	parent *env
}

func newEnv(parent *env) *env {
	return &env{vars: make(map[string]value), parent: parent}
}

func (e *env) lookup(name string) (value, bool) {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// set assigns to an existing binding or creates a global one (the
// paper disables semantic checks, so assignment never errors).
func (e *env) set(name string, v value) {
	for s := e; s != nil; s = s.parent {
		if _, ok := s.vars[name]; ok {
			s.vars[name] = v
			return
		}
		if s.parent == nil {
			s.vars[name] = v
			return
		}
	}
}

func (e *env) define(name string, v value) { e.vars[name] = v }

// ctl is the control-flow signal used to unwind break/continue/
// return/throw and the step-budget abort.
type ctl int

const (
	ctlNone ctl = iota
	ctlBreak
	ctlContinue
	ctlReturn
	ctlThrow
	ctlAbort
)

// interp executes a parsed mjs program with a step budget.
type interp struct {
	t      *trace.Tracer
	steps  int
	global *env
	sig    ctl
	sigVal value
	depth  int
}

const maxCallDepth = 64

func newInterp(t *trace.Tracer, steps int) *interp {
	return &interp{t: t, steps: steps, global: newEnv(nil)}
}

func (ip *interp) tick() bool {
	ip.steps--
	if ip.steps <= 0 {
		if ip.sig != ctlAbort {
			ip.t.Block(blkEBudget)
			ip.sig = ctlAbort
		}
		return false
	}
	return true
}

// run executes the program statements, swallowing any uncaught signal
// (an uncaught throw or budget abort does not affect acceptance).
func (ip *interp) run(prog []stmt) {
	// Hoist function declarations, as JS does.
	for _, s := range prog {
		if fd, ok := s.(funcDeclStmt); ok {
			ip.global.define(fd.name.Text(), &object{fn: &closure{params: fd.fn.params, body: fd.fn.body, env: ip.global}})
		}
	}
	for _, s := range prog {
		ip.exec(s, ip.global)
		if ip.sig != ctlNone {
			return
		}
	}
}

func (ip *interp) throw(v value) {
	ip.t.Block(blkEThrow)
	ip.sig = ctlThrow
	ip.sigVal = v
}

// exec executes one statement in scope sc.
func (ip *interp) exec(s stmt, sc *env) {
	if !ip.tick() {
		return
	}
	switch st := s.(type) {
	case emptyStmt, debuggerStmt:
		// no effect
	case blockStmt:
		inner := newEnv(sc)
		for _, s := range st.list {
			ip.exec(s, inner)
			if ip.sig != ctlNone {
				return
			}
		}
	case varStmt:
		for _, d := range st.decls {
			var v value = undefined
			if d.init != nil {
				v = ip.eval(d.init, sc)
				if ip.sig != ctlNone {
					return
				}
			}
			sc.define(d.name.Text(), v)
		}
	case exprStmt:
		ip.eval(st.e, sc)
	case ifStmt:
		c := ip.eval(st.cond, sc)
		if ip.sig != ctlNone {
			return
		}
		if truthy(c) {
			ip.t.Block(blkEIfTrue)
			ip.exec(st.then, sc)
		} else if st.els != nil {
			ip.t.Block(blkEElse)
			ip.exec(st.els, sc)
		} else {
			ip.t.Block(blkEIfFalse)
		}
	case whileStmt:
		for {
			c := ip.eval(st.cond, sc)
			if ip.sig != ctlNone || !truthy(c) {
				return
			}
			ip.t.Block(blkEWhileIter)
			ip.exec(st.body, sc)
			if !ip.loopSignal() {
				return
			}
			if !ip.tick() {
				return
			}
		}
	case doStmt:
		for {
			ip.t.Block(blkEDoIter)
			ip.exec(st.body, sc)
			if !ip.loopSignal() {
				return
			}
			c := ip.eval(st.cond, sc)
			if ip.sig != ctlNone || !truthy(c) {
				return
			}
			if !ip.tick() {
				return
			}
		}
	case forStmt:
		inner := newEnv(sc)
		if st.init != nil {
			ip.exec(st.init, inner)
			if ip.sig != ctlNone {
				return
			}
		}
		for {
			if st.cond != nil {
				c := ip.eval(st.cond, inner)
				if ip.sig != ctlNone || !truthy(c) {
					return
				}
			}
			ip.t.Block(blkEForIter)
			ip.exec(st.body, inner)
			if !ip.loopSignal() {
				return
			}
			if st.step != nil {
				ip.eval(st.step, inner)
				if ip.sig != ctlNone {
					return
				}
			}
			if !ip.tick() {
				return
			}
		}
	case forInStmt:
		obj := ip.eval(st.obj, sc)
		if ip.sig != ctlNone {
			return
		}
		inner := newEnv(sc)
		name := st.name.Text()
		if st.decl {
			inner.define(name, undefined)
		}
		for _, k := range enumKeys(obj) {
			ip.t.Block(blkEForInIter)
			if st.decl {
				inner.vars[name] = k
			} else {
				inner.set(name, k)
			}
			ip.exec(st.body, inner)
			if !ip.loopSignal() {
				return
			}
			if !ip.tick() {
				return
			}
		}
	case switchStmt:
		tag := ip.eval(st.tag, sc)
		if ip.sig != ctlNone {
			return
		}
		matched := -1
		for i, cl := range st.cases {
			if cl.test == nil {
				continue
			}
			tv := ip.eval(cl.test, sc)
			if ip.sig != ctlNone {
				return
			}
			if strictEq(tag, tv) {
				ip.t.Block(blkESwitchMatch)
				matched = i
				break
			}
		}
		if matched < 0 {
			for i, cl := range st.cases {
				if cl.test == nil {
					ip.t.Block(blkESwitchDefault)
					matched = i
					break
				}
			}
		}
		if matched < 0 {
			return
		}
		for _, cl := range st.cases[matched:] {
			for _, s := range cl.body {
				ip.exec(s, sc)
				if ip.sig == ctlBreak {
					ip.t.Block(blkEBreak)
					ip.sig = ctlNone
					return
				}
				if ip.sig != ctlNone {
					return
				}
			}
		}
	case tryStmt:
		ip.exec(st.block, sc)
		if ip.sig == ctlThrow && st.catch != nil {
			ip.t.Block(blkECatch)
			ip.sig = ctlNone
			inner := newEnv(sc)
			inner.define(st.catchName.Text(), ip.sigVal)
			ip.exec(st.catch, inner)
		}
		if st.finally != nil {
			ip.t.Block(blkEFinally)
			// Preserve a pending signal across the finally block.
			sig, sigVal := ip.sig, ip.sigVal
			ip.sig, ip.sigVal = ctlNone, nil
			ip.exec(st.finally, sc)
			if ip.sig == ctlNone {
				ip.sig, ip.sigVal = sig, sigVal
			}
		}
	case withStmt:
		ip.t.Block(blkEWith)
		ip.eval(st.obj, sc)
		if ip.sig != ctlNone {
			return
		}
		ip.exec(st.body, sc)
	case breakStmt:
		ip.sig = ctlBreak
	case continueStmt:
		ip.sig = ctlContinue
	case returnStmt:
		ip.t.Block(blkEReturn)
		var v value = undefined
		if st.val != nil {
			v = ip.eval(st.val, sc)
			if ip.sig != ctlNone {
				return
			}
		}
		ip.sig = ctlReturn
		ip.sigVal = v
	case throwStmt:
		v := ip.eval(st.val, sc)
		if ip.sig != ctlNone {
			return
		}
		ip.throw(v)
	case funcDeclStmt:
		sc.define(st.name.Text(), &object{fn: &closure{params: st.fn.params, body: st.fn.body, env: sc}})
	}
}

// loopSignal consumes break/continue inside a loop body. It returns
// false when the loop must stop.
func (ip *interp) loopSignal() bool {
	switch ip.sig {
	case ctlBreak:
		ip.t.Block(blkEBreak)
		ip.sig = ctlNone
		return false
	case ctlContinue:
		ip.t.Block(blkEContinue)
		ip.sig = ctlNone
		return true
	case ctlNone:
		return true
	}
	return false // return, throw, abort propagate
}

// eval evaluates an expression; on a non-nil signal the result is
// meaningless and callers must unwind.
func (ip *interp) eval(e expr, sc *env) value {
	if !ip.tick() {
		return undefined
	}
	switch ex := e.(type) {
	case numLit:
		return ex.v
	case strLit:
		return ex.v
	case boolLit:
		return ex.v
	case nullLit:
		return nil
	case thisLit:
		// this is bound in the scope by the calling convention;
		// at top level it is undefined.
		if v, ok := sc.lookup("this"); ok {
			return v
		}
		return undefined
	case identExpr:
		return ip.lookupIdent(ex.name, sc)
	case arrayLit:
		ip.t.Block(blkEArrayLit)
		arr := &object{isArray: true}
		for _, el := range ex.elems {
			v := ip.eval(el, sc)
			if ip.sig != ctlNone {
				return undefined
			}
			arr.elems = append(arr.elems, v)
		}
		return arr
	case objectLit:
		ip.t.Block(blkEObjectLit)
		obj := &object{props: make(map[string]value)}
		for i, k := range ex.keys {
			v := ip.eval(ex.vals[i], sc)
			if ip.sig != ctlNone {
				return undefined
			}
			obj.props[k] = v
		}
		return obj
	case funcLit:
		ip.t.Block(blkEFuncVal)
		return &object{fn: &closure{params: ex.params, body: ex.body, env: sc}}
	case unaryExpr:
		return ip.evalUnary(ex, sc)
	case incDecExpr:
		return ip.evalIncDec(ex, sc)
	case binaryExpr:
		return ip.evalBinary(ex, sc)
	case logicalExpr:
		ip.t.Block(blkELogical)
		l := ip.eval(ex.l, sc)
		if ip.sig != ctlNone {
			return undefined
		}
		if ex.op == tokLand {
			if !truthy(l) {
				return l
			}
		} else if truthy(l) {
			return l
		}
		return ip.eval(ex.r, sc)
	case condExpr:
		ip.t.Block(blkETernary)
		c := ip.eval(ex.c, sc)
		if ip.sig != ctlNone {
			return undefined
		}
		if truthy(c) {
			return ip.eval(ex.t, sc)
		}
		return ip.eval(ex.f, sc)
	case assignExpr:
		return ip.evalAssign(ex, sc)
	case callExpr:
		return ip.evalCall(ex, sc)
	case newExpr:
		return ip.evalNew(ex, sc)
	case memberExpr:
		return ip.evalMember(ex, sc)
	case preEvaluated:
		return ex.v
	}
	return undefined
}

// lookupIdent resolves an identifier: scope chain first, then the
// global built-ins through wrapped strcmp over the tainted name —
// the comparisons that let the fuzzer synthesize "undefined",
// "Object" or "JSON" (paper §5.3, Table 4).
func (ip *interp) lookupIdent(name taint.String, sc *env) value {
	if v, ok := sc.lookup(name.Text()); ok {
		ip.t.Block(blkEIdentEnv)
		return v
	}
	switch {
	case ip.t.StrEq(name, "undefined"):
		ip.t.Block(blkEIdentBuiltin)
		return undefined
	case ip.t.StrEq(name, "NaN"):
		ip.t.Block(blkEIdentBuiltin)
		return nan()
	case ip.t.StrEq(name, "print"):
		ip.t.Block(blkEIdentBuiltin)
		return &object{builtin: "print"}
	case ip.t.StrEq(name, "Object"):
		ip.t.Block(blkEIdentBuiltin)
		return &object{builtin: "Object"}
	case ip.t.StrEq(name, "String"):
		ip.t.Block(blkEIdentBuiltin)
		return &object{builtin: "String"}
	case ip.t.StrEq(name, "Number"):
		ip.t.Block(blkEIdentBuiltin)
		return &object{builtin: "Number"}
	case ip.t.StrEq(name, "Math"):
		ip.t.Block(blkEIdentBuiltin)
		return &object{builtin: "Math"}
	case ip.t.StrEq(name, "JSON"):
		ip.t.Block(blkEIdentBuiltin)
		return &object{builtin: "JSON"}
	}
	// Semantic checking disabled: unknown names are undefined.
	ip.t.Block(blkEIdentUndef)
	return undefined
}

func (ip *interp) evalUnary(ex unaryExpr, sc *env) value {
	if ex.op == tokDelete {
		ip.t.Block(blkEDelete)
		if m, ok := ex.x.(memberExpr); ok {
			obj := ip.eval(m.obj, sc)
			if ip.sig != ctlNone {
				return undefined
			}
			if o, ok := obj.(*object); ok && o.props != nil {
				key := m.name.Text()
				if m.computed {
					idx := ip.eval(m.idx, sc)
					if ip.sig != ctlNone {
						return undefined
					}
					key = toString(idx)
				}
				delete(o.props, key)
			}
			return true
		}
		ip.eval(ex.x, sc)
		return true
	}
	v := ip.eval(ex.x, sc)
	if ip.sig != ctlNone {
		return undefined
	}
	switch ex.op {
	case tokNot:
		ip.t.Block(blkENot)
		return !truthy(v)
	case tokTilde:
		ip.t.Block(blkEBitwise)
		return float64(^toInt32(v))
	case tokPlus:
		ip.t.Block(blkENeg)
		return toNumber(v)
	case tokMinus:
		ip.t.Block(blkENeg)
		return -toNumber(v)
	case tokTypeof:
		ip.t.Block(blkETypeof)
		return typeOf(v)
	case tokVoid:
		ip.t.Block(blkEVoid)
		return undefined
	}
	return undefined
}

func (ip *interp) evalIncDec(ex incDecExpr, sc *env) value {
	ip.t.Block(blkEIncDec)
	old := toNumber(ip.eval(ex.target, sc))
	if ip.sig != ctlNone {
		return undefined
	}
	delta := 1.0
	if ex.op == tokDec {
		delta = -1
	}
	ip.store(ex.target, old+delta, sc)
	if ip.sig != ctlNone {
		return undefined
	}
	if ex.prefix {
		return old + delta
	}
	return old
}

func (ip *interp) evalBinary(ex binaryExpr, sc *env) value {
	l := ip.eval(ex.l, sc)
	if ip.sig != ctlNone {
		return undefined
	}
	r := ip.eval(ex.r, sc)
	if ip.sig != ctlNone {
		return undefined
	}
	switch ex.op {
	case tokPlus:
		if ls, ok := l.(string); ok {
			ip.t.Block(blkEConcat)
			return ls + toString(r)
		}
		if rs, ok := r.(string); ok {
			ip.t.Block(blkEConcat)
			return toString(l) + rs
		}
		ip.t.Block(blkEAdd)
		return toNumber(l) + toNumber(r)
	case tokMinus:
		ip.t.Block(blkEArith)
		return toNumber(l) - toNumber(r)
	case tokStar:
		ip.t.Block(blkEArith)
		return toNumber(l) * toNumber(r)
	case tokSlash:
		ip.t.Block(blkEArith)
		return toNumber(l) / toNumber(r)
	case tokPercent:
		ip.t.Block(blkEArith)
		// Guard the truncated divisor: 0 < |rn| < 1 truncates to 0.
		rn := int64(toNumber(r))
		if rn == 0 {
			return nan()
		}
		return float64(int64(toNumber(l)) % rn)
	case tokLess, tokGreater, tokLe, tokGe:
		ip.t.Block(blkECompare)
		return compare(ex.op, l, r)
	case tokEq:
		ip.t.Block(blkEEq)
		return looseEq(l, r)
	case tokNe:
		ip.t.Block(blkEEq)
		return !looseEq(l, r)
	case tokSeq:
		ip.t.Block(blkEStrictEq)
		return strictEq(l, r)
	case tokSne:
		ip.t.Block(blkEStrictEq)
		return !strictEq(l, r)
	case tokAmp:
		ip.t.Block(blkEBitwise)
		return float64(toInt32(l) & toInt32(r))
	case tokPipe:
		ip.t.Block(blkEBitwise)
		return float64(toInt32(l) | toInt32(r))
	case tokCaret:
		ip.t.Block(blkEBitwise)
		return float64(toInt32(l) ^ toInt32(r))
	case tokShl:
		ip.t.Block(blkEShift)
		return float64(toInt32(l) << (uint32(toInt32(r)) & 31))
	case tokShr:
		ip.t.Block(blkEShift)
		return float64(toInt32(l) >> (uint32(toInt32(r)) & 31))
	case tokUshr:
		ip.t.Block(blkEShift)
		return float64(uint32(toInt32(l)) >> (uint32(toInt32(r)) & 31))
	case tokInstanceof:
		ip.t.Block(blkEInstanceof)
		lo, lok := l.(*object)
		ro, rok := r.(*object)
		if lok && rok && ro.fn != nil && lo.ctor == ro.fn {
			return true
		}
		return false
	case tokIn:
		ip.t.Block(blkEInOp)
		if o, ok := r.(*object); ok {
			key := toString(l)
			if o.props != nil {
				if _, has := o.props[key]; has {
					return true
				}
			}
			if o.isArray {
				if i, err := strconv.Atoi(key); err == nil && i >= 0 && i < len(o.elems) {
					return true
				}
			}
		}
		return false
	}
	return undefined
}

func (ip *interp) evalAssign(ex assignExpr, sc *env) value {
	if ex.op == tokAssign {
		ip.t.Block(blkEAssign)
		v := ip.eval(ex.val, sc)
		if ip.sig != ctlNone {
			return undefined
		}
		ip.store(ex.target, v, sc)
		return v
	}
	ip.t.Block(blkECompound)
	old := ip.eval(ex.target, sc)
	if ip.sig != ctlNone {
		return undefined
	}
	rhs := ip.eval(ex.val, sc)
	if ip.sig != ctlNone {
		return undefined
	}
	var binOp tokKind
	switch ex.op {
	case tokAddA:
		binOp = tokPlus
	case tokSubA:
		binOp = tokMinus
	case tokMulA:
		binOp = tokStar
	case tokDivA:
		binOp = tokSlash
	case tokModA:
		binOp = tokPercent
	case tokAndA:
		binOp = tokAmp
	case tokOrA:
		binOp = tokPipe
	case tokXorA:
		binOp = tokCaret
	case tokShlA:
		binOp = tokShl
	case tokShrA:
		binOp = tokShr
	case tokUshrA:
		binOp = tokUshr
	}
	v := ip.applyBin(binOp, old, rhs)
	ip.store(ex.target, v, sc)
	return v
}

// applyBin applies a binary operator to already-evaluated operands.
func (ip *interp) applyBin(op tokKind, l, r value) value {
	return ip.evalBinary(binaryExpr{op: op, l: litOf(l), r: litOf(r)}, nil)
}

// litOf wraps an evaluated value as a literal for applyBin.
func litOf(v value) expr {
	switch x := v.(type) {
	case float64:
		return numLit{v: x}
	case string:
		return strLit{v: x}
	case bool:
		return boolLit{v: x}
	case nil:
		return nullLit{}
	}
	return preEvaluated{v: v}
}

// preEvaluated smuggles an arbitrary runtime value through eval.
type preEvaluated struct{ v value }

func (preEvaluated) isExpr() {}

// store writes v into an assignable target.
func (ip *interp) store(target expr, v value, sc *env) {
	switch tg := target.(type) {
	case identExpr:
		ip.t.Block(blkEGlobalSet)
		sc.set(tg.name.Text(), v)
	case memberExpr:
		obj := ip.eval(tg.obj, sc)
		if ip.sig != ctlNone {
			return
		}
		o, ok := obj.(*object)
		if !ok {
			return // writing a property of a primitive: ignored
		}
		key := tg.name.Text()
		if tg.computed {
			idx := ip.eval(tg.idx, sc)
			if ip.sig != ctlNone {
				return
			}
			if o.isArray {
				if i, isNum := idx.(float64); isNum {
					n := int(i)
					if n >= 0 && n < 4096 {
						for len(o.elems) <= n {
							o.elems = append(o.elems, undefined)
						}
						o.elems[n] = v
						return
					}
				}
			}
			key = toString(idx)
		}
		if o.props == nil {
			o.props = make(map[string]value)
		}
		o.props[key] = v
	}
}

func (ip *interp) evalCall(ex callExpr, sc *env) value {
	ip.t.Block(blkECall)
	var this value = undefined
	var fn value
	if m, ok := ex.fn.(memberExpr); ok {
		obj := ip.eval(m.obj, sc)
		if ip.sig != ctlNone {
			return undefined
		}
		this = obj
		fn = ip.memberOf(obj, m, sc)
	} else {
		fn = ip.eval(ex.fn, sc)
	}
	if ip.sig != ctlNone {
		return undefined
	}
	args := make([]value, 0, len(ex.args))
	for _, a := range ex.args {
		v := ip.eval(a, sc)
		if ip.sig != ctlNone {
			return undefined
		}
		args = append(args, v)
	}
	return ip.call(fn, this, args)
}

// call invokes fn. Calling a non-function throws, giving try/catch
// something realistic to catch.
func (ip *interp) call(fn value, this value, args []value) value {
	o, ok := fn.(*object)
	if !ok {
		ip.t.Block(blkECallNonFunc)
		ip.throw("TypeError: not a function")
		return undefined
	}
	if o.fn != nil {
		if ip.depth >= maxCallDepth {
			ip.throw("RangeError: call stack exceeded")
			return undefined
		}
		ip.depth++
		ip.t.Enter()
		inner := newEnv(o.fn.env)
		for i, p := range o.fn.params {
			if i < len(args) {
				inner.define(p, args[i])
			} else {
				inner.define(p, undefined)
			}
		}
		inner.define("this", this)
		for _, s := range o.fn.body {
			ip.exec(s, inner)
			if ip.sig != ctlNone {
				break
			}
		}
		ip.t.Leave()
		ip.depth--
		if ip.sig == ctlReturn {
			ip.sig = ctlNone
			return ip.sigVal
		}
		return undefined
	}
	if o.builtin != "" {
		ip.t.Block(blkECallBuiltin)
		return ip.callBuiltin(o, this, args)
	}
	if o.bmember != nil {
		ip.t.Block(blkECallBuiltin)
		return o.bmember(ip, this, args)
	}
	ip.t.Block(blkECallNonFunc)
	ip.throw("TypeError: not a function")
	return undefined
}

// callBuiltin invokes a global builtin called as a function.
func (ip *interp) callBuiltin(o *object, _ value, args []value) value {
	arg := func(i int) value {
		if i < len(args) {
			return args[i]
		}
		return undefined
	}
	switch o.builtin {
	case "print":
		ip.t.Block(blkEPrint)
		// Output is discarded; the paper's harness pipes it away.
		_ = toString(arg(0))
		return undefined
	case "Object":
		ip.t.Block(blkEObjectFn)
		return &object{props: make(map[string]value)}
	case "String":
		ip.t.Block(blkEStringFn)
		return toString(arg(0))
	case "Number":
		ip.t.Block(blkENumberFn)
		return toNumber(arg(0))
	}
	ip.throw("TypeError: not callable")
	return undefined
}

func (ip *interp) evalNew(ex newExpr, sc *env) value {
	ip.t.Block(blkENew)
	fn := ip.eval(ex.fn, sc)
	if ip.sig != ctlNone {
		return undefined
	}
	args := make([]value, 0, len(ex.args))
	for _, a := range ex.args {
		v := ip.eval(a, sc)
		if ip.sig != ctlNone {
			return undefined
		}
		args = append(args, v)
	}
	o, ok := fn.(*object)
	if !ok {
		ip.throw("TypeError: not a constructor")
		return undefined
	}
	if o.fn != nil {
		this := &object{props: make(map[string]value), ctor: o.fn}
		ret := ip.call(fn, this, args)
		if ip.sig != ctlNone {
			return undefined
		}
		if ro, isObj := ret.(*object); isObj {
			return ro
		}
		return this
	}
	// new Object(), new String(x), new Number(x)
	return ip.callBuiltin(o, undefined, args)
}

func (ip *interp) evalMember(ex memberExpr, sc *env) value {
	obj := ip.eval(ex.obj, sc)
	if ip.sig != ctlNone {
		return undefined
	}
	return ip.memberOf(obj, ex, sc)
}

// memberOf resolves obj.name or obj[idx]. Built-in member names are
// matched through wrapped strcmp over the tainted spelling, exposing
// "floor", "indexOf", "stringify" and friends to the fuzzer.
func (ip *interp) memberOf(obj value, ex memberExpr, sc *env) value {
	if ex.computed {
		ip.t.Block(blkEIndexExpr)
		idx := ip.eval(ex.idx, sc)
		if ip.sig != ctlNone {
			return undefined
		}
		switch o := obj.(type) {
		case *object:
			if o.isArray {
				if f, ok := idx.(float64); ok {
					i := int(f)
					if i >= 0 && i < len(o.elems) {
						return o.elems[i]
					}
					return undefined
				}
			}
			if o.props != nil {
				if v, ok := o.props[toString(idx)]; ok {
					return v
				}
			}
			return undefined
		case string:
			if f, ok := idx.(float64); ok {
				i := int(f)
				if i >= 0 && i < len(o) {
					return string(o[i])
				}
			}
			return undefined
		}
		return undefined
	}

	name := ex.name
	switch o := obj.(type) {
	case *object:
		switch o.builtin {
		case "Math":
			ip.t.Block(blkEMemberMath)
			switch {
			case ip.t.StrEq(name, "floor"):
				ip.t.Block(blkEMathFloor)
				return bmemberObj(func(ip *interp, _ value, a []value) value {
					return float64(int64(toNumber(argAt(a, 0))))
				})
			case ip.t.StrEq(name, "min"):
				ip.t.Block(blkEMathMin)
				return bmemberObj(func(ip *interp, _ value, a []value) value {
					x, y := toNumber(argAt(a, 0)), toNumber(argAt(a, 1))
					if x < y {
						return x
					}
					return y
				})
			case ip.t.StrEq(name, "max"):
				ip.t.Block(blkEMathMax)
				return bmemberObj(func(ip *interp, _ value, a []value) value {
					x, y := toNumber(argAt(a, 0)), toNumber(argAt(a, 1))
					if x > y {
						return x
					}
					return y
				})
			case ip.t.StrEq(name, "abs"):
				ip.t.Block(blkEMathAbs)
				return bmemberObj(func(ip *interp, _ value, a []value) value {
					x := toNumber(argAt(a, 0))
					if x < 0 {
						return -x
					}
					return x
				})
			}
			return undefined
		case "JSON":
			ip.t.Block(blkEMemberJSON)
			switch {
			case ip.t.StrEq(name, "stringify"):
				ip.t.Block(blkEJSONStringify)
				return bmemberObj(func(ip *interp, _ value, a []value) value {
					return jsonStringify(argAt(a, 0), 0)
				})
			case ip.t.StrEq(name, "parse"):
				ip.t.Block(blkEJSONParse)
				return bmemberObj(func(ip *interp, _ value, a []value) value {
					v, ok := jsonParse(toString(argAt(a, 0)))
					if !ok {
						ip.throw("SyntaxError: invalid JSON")
						return undefined
					}
					return v
				})
			}
			return undefined
		case "Object":
			ip.t.Block(blkEMemberObject)
			if ip.t.StrEq(name, "keys") {
				ip.t.Block(blkEObjectKeys)
				return bmemberObj(func(ip *interp, _ value, a []value) value {
					arr := &object{isArray: true}
					for _, k := range enumKeys(argAt(a, 0)) {
						arr.elems = append(arr.elems, k)
					}
					return arr
				})
			}
			return undefined
		}
		if o.isArray {
			ip.t.Block(blkEMemberArray)
			if ip.t.StrEq(name, "length") {
				return float64(len(o.elems))
			}
			return undefined
		}
		ip.t.Block(blkEMemberObject)
		if o.props != nil {
			if v, ok := o.props[name.Text()]; ok {
				return v
			}
		}
		return undefined

	case string:
		ip.t.Block(blkEMemberString)
		switch {
		case ip.t.StrEq(name, "length"):
			ip.t.Block(blkEStrLength)
			return float64(len(o))
		case ip.t.StrEq(name, "indexOf"):
			ip.t.Block(blkEStrIndexOf)
			return bmemberObj(func(ip *interp, this value, a []value) value {
				s, _ := this.(string)
				return float64(strings.Index(s, toString(argAt(a, 0))))
			})
		case ip.t.StrEq(name, "charAt"):
			ip.t.Block(blkEStrCharAt)
			return bmemberObj(func(ip *interp, this value, a []value) value {
				s, _ := this.(string)
				i := int(toNumber(argAt(a, 0)))
				if i >= 0 && i < len(s) {
					return string(s[i])
				}
				return ""
			})
		}
		return undefined
	}
	ip.t.Block(blkEMemberUndef)
	return undefined
}

func argAt(a []value, i int) value {
	if i < len(a) {
		return a[i]
	}
	return undefined
}

// bmemberObj wraps a native method as a callable object.
func bmemberObj(fn func(*interp, value, []value) value) *object {
	return &object{bmember: fn}
}
