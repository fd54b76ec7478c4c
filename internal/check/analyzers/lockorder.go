package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// LockOrder flags the concurrency hazards that internal/runner's worker
// pool and exp's Session must stay free of:
//
//   - inconsistent mutex acquisition order: lock A held while B is
//     acquired in one place and the reverse elsewhere (a deadlock cycle),
//     including acquisitions one or more calls away through the graph;
//   - a channel operation (send, receive, select) while holding a lock —
//     a blocked channel op under a mutex stalls every other user of it;
//   - acquiring a lock already held (Go mutexes are not reentrant).
//
// Lock identity is syntactic: the rendered selector path with the
// method's receiver variable normalized to its type name, prefixed with
// the package ("runner.doneMu", "exp.Session.mu"). Branch bodies
// analyze with a copy of the held set, so balanced lock/unlock inside a
// branch does not leak; defer x.Unlock() keeps the lock held to the end
// of the function, which is exactly the window the checks care about.
var LockOrder = &InterAnalyzer{
	Name: "lockorder",
	Doc:  "flags lock-order cycles, channel ops under a held mutex, and re-acquisition",
	Run:  runLockOrder,
}

type lockEdge struct {
	from, to string
	pos      token.Pos
	where    string // function key, for the message
}

type lockState struct {
	g        *CallGraph
	findings []Finding
	edges    []lockEdge
	// direct lock acquisitions per function key.
	acquires map[string]map[string]bool
	// calls made while holding at least one lock: caller-held snapshot.
	heldCalls []heldCall
}

type heldCall struct {
	caller, callee string
	held           []string
	pos            token.Pos
}

func runLockOrder(g *CallGraph, opts *InterOptions) ([]Finding, error) {
	st := &lockState{g: g, acquires: map[string]map[string]bool{}}
	for _, key := range g.Keys() {
		info := g.Funcs[key]
		w := &lockWalker{
			st: st, key: key, pkg: info.Pkg,
			recvVar:  recvIdentName(info.Decl),
			recvType: recvTypeName(info.Decl),
		}
		w.block(info.Decl.Body.List, nil)
	}

	// Close acquisitions over the call graph: a callee's locks are
	// acquired (transitively) by its callers.
	total := func() map[string]map[string]bool {
		out := map[string]map[string]bool{}
		for k, locks := range st.acquires {
			out[k] = map[string]bool{}
			for l := range locks {
				out[k][l] = true
			}
		}
		for changed := true; changed; {
			changed = false
			for _, k := range st.g.Keys() {
				for _, c := range st.g.Funcs[k].Calls {
					for l := range out[c] {
						if out[k] == nil {
							out[k] = map[string]bool{}
						}
						if !out[k][l] {
							out[k][l] = true
							changed = true
						}
					}
				}
			}
		}
		return out
	}()

	// Calls under a held lock contribute edges to everything the callee
	// can acquire; a callee re-acquiring a held lock is a deadlock on
	// its own.
	for _, hc := range st.heldCalls {
		locks := make([]string, 0, len(total[hc.callee]))
		for l := range total[hc.callee] {
			locks = append(locks, l)
		}
		sort.Strings(locks)
		for _, h := range hc.held {
			for _, l := range locks {
				if l == h {
					st.findings = append(st.findings, Finding{
						Analyzer: "lockorder",
						Pos:      st.g.Fset.Position(hc.pos),
						Message:  fmt.Sprintf("%s calls %s while holding %s, which %s (transitively) re-acquires: mutexes are not reentrant", hc.caller, hc.callee, h, hc.callee),
					})
					continue
				}
				st.edges = append(st.edges, lockEdge{from: h, to: l, pos: hc.pos, where: hc.caller})
			}
		}
	}

	// Cycle detection over the acquisition-order graph.
	adj := map[string]map[string]bool{}
	for _, e := range st.edges {
		if adj[e.from] == nil {
			adj[e.from] = map[string]bool{}
		}
		adj[e.from][e.to] = true
	}
	reaches := func(from, to string) bool {
		seen := map[string]bool{from: true}
		queue := []string{from}
		for len(queue) > 0 {
			k := queue[0]
			queue = queue[1:]
			for n := range adj[k] {
				if n == to {
					return true
				}
				if !seen[n] {
					seen[n] = true
					queue = append(queue, n)
				}
			}
		}
		return false
	}
	reported := map[string]bool{}
	for _, e := range st.edges {
		if !reaches(e.to, e.from) {
			continue
		}
		key := e.from + "->" + e.to
		if reported[key] {
			continue
		}
		reported[key] = true
		st.findings = append(st.findings, Finding{
			Analyzer: "lockorder",
			Pos:      st.g.Fset.Position(e.pos),
			Message:  fmt.Sprintf("lock order cycle: %s acquires %s while holding %s, but the reverse order also occurs", e.where, e.to, e.from),
		})
	}
	return st.findings, nil
}

// lockWalker runs the per-function linear analysis.
type lockWalker struct {
	st       *lockState
	key      string
	pkg      string
	recvVar  string
	recvType string
}

// block walks one statement list, threading the held set through
// sequential flow; nested blocks see a copy.
func (w *lockWalker) block(stmts []ast.Stmt, held []string) []string {
	for _, s := range stmts {
		held = w.stmt(s, held)
	}
	return held
}

func (w *lockWalker) sub(stmts []ast.Stmt, held []string) {
	w.block(stmts, append([]string(nil), held...))
}

func (w *lockWalker) stmt(s ast.Stmt, held []string) []string {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if next, handled := w.lockCall(call, held); handled {
				return next
			}
		}
		w.checkChannelOps(s, held)
		w.recordCalls(s, held)
	case *ast.DeferStmt:
		// defer x.Unlock() leaves the lock held for the rest of the
		// function; defer of anything else is out of the critical path.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.sub(lit.Body.List, nil)
		}
	case *ast.GoStmt:
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			// A goroutine starts with no locks held.
			w.sub(lit.Body.List, nil)
		}
	case *ast.SendStmt:
		w.channelFinding(s.Pos(), held, "send")
		w.recordCalls(s, held)
	case *ast.SelectStmt:
		w.channelFinding(s.Pos(), held, "select")
		for _, cc := range s.Body.List {
			if c, ok := cc.(*ast.CommClause); ok {
				w.sub(c.Body, held)
			}
		}
	case *ast.BlockStmt:
		w.sub(s.List, held)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	case *ast.IfStmt:
		w.checkChannelOps(s.Cond, held)
		w.sub(s.Body.List, held)
		if s.Else != nil {
			w.sub([]ast.Stmt{s.Else}, held)
		}
	case *ast.ForStmt:
		w.sub(s.Body.List, held)
	case *ast.RangeStmt:
		w.checkChannelOps(s.X, held)
		w.sub(s.Body.List, held)
	case *ast.SwitchStmt:
		if s.Tag != nil {
			w.checkChannelOps(s.Tag, held)
		}
		for _, cc := range s.Body.List {
			if c, ok := cc.(*ast.CaseClause); ok {
				w.sub(c.Body, held)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			if c, ok := cc.(*ast.CaseClause); ok {
				w.sub(c.Body, held)
			}
		}
	default:
		w.checkChannelOps(s, held)
		w.recordCalls(s, held)
	}
	return held
}

// lockCall handles x.Lock()/x.Unlock() statements; handled reports
// whether the call was a lock primitive.
func (w *lockWalker) lockCall(call *ast.CallExpr, held []string) ([]string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return held, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		key := w.lockKey(sel.X)
		for _, h := range held {
			if h == key {
				w.st.findings = append(w.st.findings, Finding{
					Analyzer: "lockorder",
					Pos:      w.st.g.Fset.Position(call.Pos()),
					Message:  fmt.Sprintf("%s acquires %s while already holding it: Go mutexes are not reentrant", w.key, key),
				})
				return held, true
			}
		}
		for _, h := range held {
			w.st.edges = append(w.st.edges, lockEdge{from: h, to: key, pos: call.Pos(), where: w.key})
		}
		if w.st.acquires[w.key] == nil {
			w.st.acquires[w.key] = map[string]bool{}
		}
		w.st.acquires[w.key][key] = true
		return append(held, key), true
	case "Unlock", "RUnlock":
		key := w.lockKey(sel.X)
		for i := len(held) - 1; i >= 0; i-- {
			if held[i] == key {
				return append(append([]string(nil), held[:i]...), held[i+1:]...), true
			}
		}
		return held, true
	}
	return held, false
}

// lockKey renders the mutex path with the receiver normalized to the
// type name and the package prefixed.
func (w *lockWalker) lockKey(x ast.Expr) string {
	path := renderExpr(x)
	if w.recvVar != "" {
		if path == w.recvVar {
			path = w.recvType
		} else if strings.HasPrefix(path, w.recvVar+".") {
			path = w.recvType + strings.TrimPrefix(path, w.recvVar)
		}
	}
	return w.pkg + "." + path
}

func renderExpr(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return renderExpr(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return renderExpr(x.X)
	case *ast.UnaryExpr:
		return renderExpr(x.X)
	default:
		return "?"
	}
}

// checkChannelOps reports channel receives buried in an expression
// position while locks are held. Function literals are skipped: their
// bodies run elsewhere.
func (w *lockWalker) checkChannelOps(n ast.Node, held []string) {
	if len(held) == 0 {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				w.channelFinding(x.Pos(), held, "receive")
			}
		case *ast.SendStmt:
			w.channelFinding(x.Pos(), held, "send")
			return false
		}
		return true
	})
}

func (w *lockWalker) channelFinding(pos token.Pos, held []string, what string) {
	if len(held) == 0 {
		return
	}
	w.st.findings = append(w.st.findings, Finding{
		Analyzer: "lockorder",
		Pos:      w.st.g.Fset.Position(pos),
		Message:  fmt.Sprintf("%s performs a channel %s while holding %s: a blocked %s stalls every user of the lock", w.key, what, strings.Join(held, ", "), what),
	})
}

// recordCalls snapshots graph-resolved calls made while holding locks,
// for the interprocedural edge pass.
func (w *lockWalker) recordCalls(n ast.Node, held []string) {
	if len(held) == 0 {
		return
	}
	snapshot := append([]string(nil), held...)
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, callee := range w.resolve(call) {
			w.st.heldCalls = append(w.st.heldCalls, heldCall{
				caller: w.key, callee: callee, held: snapshot, pos: call.Pos(),
			})
		}
		return true
	})
}

// resolve returns the graph keys a call may dispatch to, mirroring the
// edge builder's conservative rules (same-package ident, any method of
// the same name).
func (w *lockWalker) resolve(call *ast.CallExpr) []string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if k := w.pkg + "." + fun.Name; w.st.g.Funcs[k] != nil {
			return []string{k}
		}
	case *ast.SelectorExpr:
		return w.st.g.byMethod[fun.Sel.Name]
	}
	return nil
}
