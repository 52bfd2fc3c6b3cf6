// Package nolockbuild flags potentially blocking work inside exclusive
// critical sections.
//
// The memo, router, and registry locks are all designed as short
// metadata locks: builds run outside the memo lock (memo.LRU.run), plan
// compilation runs outside the engine cache lock (Engine.compileEntry),
// and the serve daemon's admission path never blocks while holding the
// drain lock. One blocking call introduced under any of these locks
// serializes the whole engine — or deadlocks it, if the callee ever
// takes the same lock. Nothing but convention enforces this today; this
// analyzer encodes the convention.
//
// Within a function, the analyzer tracks sync.Mutex/RWMutex critical
// sections syntactically (x.Lock() ... x.Unlock(), or x.Lock() with a
// deferred unlock). While at least one EXCLUSIVE lock is held (RLock
// sections are exempt — evaluating under a registry read lock is the
// serving design), it flags:
//
//   - acquiring any other lock (lock-order inversion risk), or the
//     same lock again (guaranteed self-deadlock);
//   - channel sends and receives (blocking handoffs), except inside a
//     select that has a default clause;
//   - known expensive or blocking callees: plan.Compile, the memo
//     build entry points (LRU.Get / LRU.GetOrRepair / GetLineage),
//     sync.WaitGroup.Wait, sync.Cond.Wait, sync.Once.Do, and time.Sleep;
//   - same-package callees whose body acquires any lock (a one-level
//     call-graph check);
//   - dynamic calls through function values, whose callee the analyzer
//     cannot see (these are rare on the hot paths and each one deserves
//     either restructuring or an explicit allow directive).
//
// Goroutine launches and closure bodies are not attributed to the
// critical section (they run elsewhere). Intentional exceptions carry a
// `//cqalint:allow nolockbuild <reason>` directive — that directive is
// the allowlist, and the reason is mandatory.
package nolockbuild

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"

	"cqa/internal/lint/analysis"
	"cqa/internal/lint/typeutil"
)

// Analyzer flags blocking calls under exclusive locks.
var Analyzer = &analysis.Analyzer{
	Name: "nolockbuild",
	Doc:  "no potentially blocking call (other locks, channel ops, plan compiles, memo builds) while holding an exclusive lock",
	Run:  run,
}

// heldLock is one acquired lock in the current critical section.
type heldLock struct {
	key  string // rendered receiver expression, e.g. "e.mu"
	excl bool
}

type checker struct {
	pass *analysis.Pass
	// locksIn marks same-package functions whose body acquires a lock.
	locksIn map[*types.Func]bool
}

func run(pass *analysis.Pass) (any, error) {
	c := &checker{pass: pass, locksIn: make(map[*types.Func]bool)}
	// Pre-pass: which functions of this package acquire locks at all.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			acquires := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, isLit := n.(*ast.FuncLit); isLit {
					return false
				}
				if call, ok := n.(*ast.CallExpr); ok {
					if _, kind := c.lockCall(call); kind == "Lock" || kind == "RLock" {
						acquires = true
					}
				}
				return !acquires
			})
			if acquires {
				c.locksIn[obj] = true
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.walkStmts(fd.Body.List, nil)
			}
		}
	}
	return nil, nil
}

// lockCall classifies call as a sync.Mutex/RWMutex lock operation,
// returning the receiver expression and the method name ("Lock",
// "RLock", "Unlock", "RUnlock"), or kind == "" for anything else.
func (c *checker) lockCall(call *ast.CallExpr) (recv ast.Expr, kind string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, ""
	}
	t := c.pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return nil, ""
	}
	if !typeutil.IsNamed(t, "sync", "Mutex") && !typeutil.IsNamed(t, "sync", "RWMutex") {
		return nil, ""
	}
	return sel.X, sel.Sel.Name
}

// render prints an expression as its lock key.
func (c *checker) render(e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, c.pass.Fset, e); err != nil {
		return "?"
	}
	return buf.String()
}

func exclusive(held []heldLock) (heldLock, bool) {
	for _, h := range held {
		if h.excl {
			return h, true
		}
	}
	return heldLock{}, false
}

// walkStmts walks a statement list tracking the held-lock state
// sequentially. Nested blocks analyze under a copy of the current
// state: locks they acquire (or release) do not leak out, a sound
// under-approximation for lint purposes.
func (c *checker) walkStmts(stmts []ast.Stmt, held []heldLock) {
	for _, st := range stmts {
		held = c.walkStmt(st, held)
	}
}

func (c *checker) walkStmt(st ast.Stmt, held []heldLock) []heldLock {
	nested := func(body *ast.BlockStmt) {
		if body != nil {
			c.walkStmts(body.List, append([]heldLock(nil), held...))
		}
	}
	switch s := st.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if recv, kind := c.lockCall(call); kind != "" {
				key := c.render(recv)
				switch kind {
				case "Lock", "RLock":
					if _, excl := exclusive(held); excl {
						c.checkAcquire(call, key, held)
					}
					return append(held, heldLock{key: key, excl: kind == "Lock"})
				case "Unlock", "RUnlock":
					for i := len(held) - 1; i >= 0; i-- {
						if held[i].key == key {
							return append(append([]heldLock(nil), held[:i]...), held[i+1:]...)
						}
					}
					return held
				}
			}
		}
		c.checkExpr(s.X, held)
	case *ast.DeferStmt:
		// defer x.Unlock() keeps the lock held to function end, which is
		// the default for our sequential state — nothing to do. Other
		// deferred work runs at return, outside the tracked section.
	case *ast.GoStmt:
		// The goroutine body runs elsewhere; only the argument
		// expressions evaluate here.
		for _, a := range s.Call.Args {
			c.checkExpr(a, held)
		}
	case *ast.SendStmt:
		if h, excl := exclusive(held); excl {
			c.pass.Reportf(s.Pos(), "channel send while holding %s; a full receiver parks this goroutine inside the critical section", h.key)
		}
		c.checkExpr(s.Chan, held)
		c.checkExpr(s.Value, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.checkExpr(e, held)
		}
		for _, e := range s.Lhs {
			c.checkExpr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.checkExpr(e, held)
		}
	case *ast.IncDecStmt:
		c.checkExpr(s.X, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.checkExpr(v, held)
					}
				}
			}
		}
	case *ast.IfStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, held)
		}
		c.checkExpr(s.Cond, held)
		nested(s.Body)
		if s.Else != nil {
			c.walkStmts([]ast.Stmt{s.Else}, append([]heldLock(nil), held...))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			c.checkExpr(s.Cond, held)
		}
		nested(s.Body)
	case *ast.RangeStmt:
		c.checkExpr(s.X, held)
		nested(s.Body)
	case *ast.SwitchStmt:
		if s.Tag != nil {
			c.checkExpr(s.Tag, held)
		}
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				c.walkStmts(cl.Body, append([]heldLock(nil), held...))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				c.walkStmts(cl.Body, append([]heldLock(nil), held...))
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CommClause); ok && cl.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			if h, excl := exclusive(held); excl {
				c.pass.Reportf(s.Pos(), "blocking select (no default clause) while holding %s", h.key)
			}
		}
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CommClause); ok {
				c.walkStmts(cl.Body, append([]heldLock(nil), held...))
			}
		}
	case *ast.BlockStmt:
		nested(s)
	case *ast.LabeledStmt:
		return c.walkStmt(s.Stmt, held)
	}
	return held
}

// checkExpr inspects one expression for blocking operations while held
// locks include an exclusive one. Function-literal bodies are skipped:
// they execute elsewhere.
func (c *checker) checkExpr(e ast.Expr, held []heldLock) {
	h, excl := exclusive(held)
	if !excl {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				c.pass.Reportf(v.Pos(), "channel receive while holding %s; an empty channel parks this goroutine inside the critical section", h.key)
			}
		case *ast.CallExpr:
			if recv, kind := c.lockCall(v); kind != "" {
				if kind == "Lock" || kind == "RLock" {
					c.checkAcquire(v, c.render(recv), held)
				}
				return true
			}
			c.checkCall(v, h)
		}
		return true
	})
}

// checkAcquire reports acquiring key while other locks are held
// exclusively.
func (c *checker) checkAcquire(call *ast.CallExpr, key string, held []heldLock) {
	h, excl := exclusive(held)
	if !excl {
		return
	}
	for _, hl := range held {
		if hl.key == key {
			c.pass.Reportf(call.Pos(), "re-acquires %s, which is already held: guaranteed self-deadlock", key)
			return
		}
	}
	c.pass.Reportf(call.Pos(), "acquires %s while holding %s; nested locks under an exclusive section risk lock-order inversion", key, h.key)
}

// checkCall reports blocking callees invoked while h is held.
func (c *checker) checkCall(call *ast.CallExpr, h heldLock) {
	info := c.pass.TypesInfo
	// Conversions and builtins are never blocking.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, ok := info.Uses[id].(*types.Builtin); ok {
			return
		}
	}
	fn := typeutil.Callee(info, call)
	if fn == nil {
		c.pass.Reportf(call.Pos(), "dynamic call through a function value while holding %s; the callee is unverifiable and may block (restructure, or annotate with //cqalint:allow nolockbuild <reason>)", h.key)
		return
	}
	switch {
	case typeutil.IsPkgFunc(fn, "cqa/internal/plan", "Compile"):
		c.pass.Reportf(call.Pos(), "plan.Compile while holding %s; compilation (classification + DFA certification) must run outside locks (see Engine.compileEntry)", h.key)
	case typeutil.IsMethod(fn, "cqa/internal/memo", "LRU", "Get"),
		typeutil.IsMethod(fn, "cqa/internal/memo", "LRU", "GetOrRepair"),
		typeutil.IsPkgFunc(fn, "cqa/internal/memo", "GetLineage"):
		c.pass.Reportf(call.Pos(), "memo build entry point %s while holding %s; artifact builds run outside locks by contract", fn.Name(), h.key)
	case typeutil.IsMethod(fn, "sync", "WaitGroup", "Wait"),
		typeutil.IsMethod(fn, "sync", "Cond", "Wait"),
		typeutil.IsMethod(fn, "sync", "Once", "Do"),
		typeutil.IsPkgFunc(fn, "time", "Sleep"):
		c.pass.Reportf(call.Pos(), "%s.%s while holding %s", fn.Pkg().Name(), fn.Name(), h.key)
	case fn.Pkg() == c.pass.Pkg && c.locksIn[fn.Origin()]:
		c.pass.Reportf(call.Pos(), "calls %s, which acquires a lock, while holding %s; one level down this is a lock-order inversion or self-deadlock", fn.Name(), h.key)
	}
}
