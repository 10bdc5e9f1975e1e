package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// hotallocMarker suppresses one hotalloc diagnostic at a site.
const hotallocMarker = "hotalloc-ok"

// Declaration directives: hotpathWord roots the walk at a function
// whose steady state must stay allocation-free; hotpathStopWord fences
// off a callee subtree that is deliberately outside that contract
// (rescue paths, cold slow paths).
const (
	hotpathWord     = "hotpath"
	hotpathStopWord = "hotpath-stop"
)

// Hotalloc walks the static call graph from //aladdin:hotpath root
// functions and flags constructs the compiler heap-allocates, so a
// zero-alloc regression fails at vet time with a file:line instead of
// at test time with an allocation count (TestSessionPlaceZeroAlloc,
// make allocguard).  Flagged constructs: function literals capturing
// variables, make/new, &composite literals and map/slice literals,
// string↔[]byte/[]rune conversions and string concatenation, fmt
// calls, interface boxing at call arguments, append whose result does
// not feed back into its own first argument (the arena-reuse idiom
// x = append(x, …) and `return append(x, …)` are allowed), and go
// statements.
//
// Two escape hatches keep the signal honest.  Blocks that end by
// returning a non-nil error (or panicking) are cold — corruption and
// validation paths may build rich errors.  //aladdin:hotpath-stop on a
// function excludes it and everything only reachable through it from
// the walk; in the scheduler core that is the corruption report built
// when a rescue's own rollback fails.  The rescue pipeline itself
// (migration, defrag, preemption) is inside the walk: on a tight
// cluster it serves most placements.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc: "flags heap-allocating constructs reachable from //aladdin:hotpath roots; " +
		"suppress deliberate allocations with //aladdin:" + hotallocMarker,
	Run: runHotalloc,
}

func runHotalloc(pass *Pass) (any, error) {
	graph := buildCallGraph(pass)
	var roots []*types.Func
	stop := make(map[*types.Func]bool)
	stopComments := make(map[*types.Func]*ast.Comment)
	for _, fn := range graph.sortedFuncs() {
		fd := graph.decls[fn]
		if _, c, ok := funcDirective(fd, hotpathWord); ok {
			roots = append(roots, fn)
			pass.noteMarkerUse(c)
		}
		if _, c, ok := funcDirective(fd, hotpathStopWord); ok {
			stop[fn] = true
			stopComments[fn] = c
		}
	}
	if len(roots) == 0 {
		return nil, nil
	}
	reached := graph.reachable(roots, stop)
	// A stop directive is consumed when it actually fences something:
	// some function on the hot path calls the stopped function.
	for fn, c := range stopComments {
		for caller := range reached {
			if containsFunc(graph.callees[caller], fn) {
				pass.noteMarkerUse(c)
				break
			}
		}
	}
	for _, fn := range graph.sortedFuncs() {
		root, ok := reached[fn]
		if !ok {
			continue
		}
		checkHotFunc(pass, graph.decls[fn], funcDisplayName(root))
	}
	return nil, nil
}

func containsFunc(fns []*types.Func, fn *types.Func) bool {
	for _, f := range fns {
		if f == fn {
			return true
		}
	}
	return false
}

// checkHotFunc reports heap-allocating constructs in one hot
// function's body, skipping cold (error/panic-terminated) blocks.
func checkHotFunc(pass *Pass, fd *ast.FuncDecl, root string) {
	allowedAppends := collectAllowedAppends(fd)
	var inspect func(n ast.Node) bool
	inspect = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			if n != fd.Body && isColdStmts(pass, n.List) {
				return false
			}
		case *ast.CaseClause:
			if isColdStmts(pass, n.Body) {
				return false
			}
		case *ast.CommClause:
			if isColdStmts(pass, n.Body) {
				return false
			}
		case *ast.FuncLit:
			if caps := capturedVars(pass, fd, n); len(caps) > 0 {
				pass.Reportf(n.Pos(), hotallocMarker,
					"function literal captures %s: a closure allocates per call on the hot path (root %s)",
					strings.Join(caps, ", "), root)
			}
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), hotallocMarker,
				"go statement allocates on the hot path (root %s)", root)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, isLit := ast.Unparen(n.X).(*ast.CompositeLit); isLit {
					pass.Reportf(n.Pos(), hotallocMarker,
						"&composite literal escapes to the heap on the hot path (root %s)", root)
					return false
				}
			}
		case *ast.CompositeLit:
			if tv, ok := pass.TypesInfo.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					pass.Reportf(n.Pos(), hotallocMarker,
						"map literal allocates on the hot path (root %s)", root)
				case *types.Slice:
					pass.Reportf(n.Pos(), hotallocMarker,
						"slice literal allocates on the hot path (root %s)", root)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := pass.TypesInfo.Types[n]; ok && isStringType(tv.Type) {
					pass.Reportf(n.Pos(), hotallocMarker,
						"string concatenation allocates on the hot path (root %s)", root)
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, n, allowedAppends, root)
		}
		return true
	}
	ast.Inspect(fd.Body, inspect)
}

// checkHotCall reports allocation at one call site: allocating
// builtins, allocating conversions, fmt calls, and interface boxing.
func checkHotCall(pass *Pass, call *ast.CallExpr, allowedAppends map[*ast.CallExpr]bool, root string) {
	// Conversions: T(x).
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, pass.TypesInfo.Types[call.Args[0]].Type
		if allocatingConversion(to, from) {
			pass.Reportf(call.Pos(), hotallocMarker,
				"conversion %s allocates a copy on the hot path (root %s)",
				describeConversion(to), root)
		}
		return
	}
	// Builtins.
	if ident, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[ident].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(), hotallocMarker,
					"make allocates on the hot path (root %s): hoist into per-session scratch", root)
			case "new":
				pass.Reportf(call.Pos(), hotallocMarker,
					"new allocates on the hot path (root %s)", root)
			case "append":
				if !allowedAppends[call] {
					pass.Reportf(call.Pos(), hotallocMarker,
						"append into a new destination allocates on the hot path (root %s): reuse the receiver slice (x = append(x, …))", root)
				}
			}
			return
		}
	}
	// fmt calls: formatting boxes every argument and builds a string.
	if fn := staticCallee(pass, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), hotallocMarker,
			"fmt.%s allocates on the hot path (root %s)", fn.Name(), root)
		return
	}
	// Interface boxing at argument positions.
	sig, ok := pass.TypesInfo.Types[call.Fun].Type.(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	for i, arg := range call.Args {
		param := paramAt(sig, i)
		if param == nil || !types.IsInterface(param) {
			continue
		}
		argType := pass.TypesInfo.Types[arg].Type
		if argType == nil || types.IsInterface(argType) || isUntypedNil(pass, arg) {
			continue
		}
		if pointerShaped(argType) {
			continue // the interface data word holds the pointer directly
		}
		pass.Reportf(arg.Pos(), hotallocMarker,
			"argument boxes %s into interface parameter on the hot path (root %s)",
			argType.String(), root)
	}
}

// paramAt resolves the effective parameter type of argument i,
// unwrapping the variadic tail.
func paramAt(sig *types.Signature, i int) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		s, ok := sig.Params().At(n - 1).Type().(*types.Slice)
		if !ok {
			return nil
		}
		return s.Elem()
	}
	if i >= n {
		return nil
	}
	return sig.Params().At(i).Type()
}

func isUntypedNil(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.IsNil()
}

// pointerShaped reports types whose value is a single pointer word:
// converting one to an interface stores it in the data word directly,
// with no allocation.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// allocatingConversion reports string↔[]byte / string↔[]rune
// conversions, which copy their operand.
func allocatingConversion(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	return (isStringType(to) && isByteOrRuneSlice(from)) ||
		(isByteOrRuneSlice(to) && isStringType(from))
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func describeConversion(to types.Type) string {
	if isStringType(to) {
		return "to string"
	}
	return fmt.Sprintf("to %s", to.String())
}

// collectAllowedAppends finds append calls in the two arena-reuse
// shapes that do not create a new live slice per call:
//
//	x = append(x, …)       // feeds back into its own first argument
//	return append(x, …)    // caller owns the buffer and feeds it back
func collectAllowedAppends(fd *ast.FuncDecl) map[*ast.CallExpr]bool {
	allowed := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isAppendCall(call) || len(call.Args) == 0 {
					continue
				}
				if sameExprText(n.Lhs[i], call.Args[0]) {
					allowed[call] = true
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if call, ok := ast.Unparen(res).(*ast.CallExpr); ok && isAppendCall(call) {
					allowed[call] = true
				}
			}
		}
		return true
	})
	return allowed
}

func isAppendCall(call *ast.CallExpr) bool {
	ident, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && ident.Name == "append"
}

// sameExprText compares two expressions syntactically, ignoring
// whitespace, for the x = append(x, …) feedback test.
func sameExprText(a, b ast.Expr) bool {
	return nodeText(a) == nodeText(b)
}

func nodeText(n ast.Node) string {
	var sb strings.Builder
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.Ident:
			sb.WriteString(c.Name)
			sb.WriteByte(' ')
		case *ast.BasicLit:
			sb.WriteString(c.Value)
			sb.WriteByte(' ')
		case *ast.SelectorExpr:
			sb.WriteString(".")
		case *ast.IndexExpr:
			sb.WriteString("[")
		}
		return true
	})
	return sb.String()
}

// capturedVars lists local variables of the enclosing declaration the
// literal closes over, in first-use order.  A literal with no captures
// compiles to a static function value and is allocation-free.
func capturedVars(pass *Pass, fd *ast.FuncDecl, lit *ast.FuncLit) []string {
	var names []string
	seen := make(map[*types.Var]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		ident, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[ident].(*types.Var)
		if !ok || seen[v] || v.IsField() {
			return true
		}
		// Captured: declared inside the enclosing declaration (its
		// parameters, receiver, or locals) but outside the literal.
		if v.Pos() < fd.Pos() || v.Pos() > fd.End() {
			return true // package-level or other-file: not captured
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // the literal's own params/locals
		}
		seen[v] = true
		names = append(names, v.Name())
		return true
	})
	sort.Strings(names)
	return names
}

// isColdStmts reports whether a statement list is a cold (failure)
// path: it ends by returning a non-nil error or panicking.  Hot
// functions may build rich errors on such paths; the steady-state
// allocation contract covers success paths only.
func isColdStmts(pass *Pass, list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt:
		if len(last.Results) == 0 {
			return false
		}
		res := last.Results[len(last.Results)-1]
		tv, ok := pass.TypesInfo.Types[res]
		if !ok || tv.IsNil() {
			return false
		}
		return isErrorType(tv.Type)
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		ident, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		_, isBuiltin := pass.TypesInfo.Uses[ident].(*types.Builtin)
		return isBuiltin && ident.Name == "panic"
	}
	return false
}

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
		return true
	}
	// Concrete error implementations returned on failure paths count
	// too (*CorruptionError and friends).
	return types.Implements(t, errorInterface) ||
		types.Implements(types.NewPointer(t), errorInterface)
}

// errorInterface is the universe error interface type.
var errorInterface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
