package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MapIterationOrder flags `for range` over a map value in the
// deterministic internal/ packages when the loop body feeds an
// order-sensitive sink - emits output, appends to a slice declared
// outside the loop, records telemetry, or sends on a channel -
// without the result being sorted afterwards. Map iteration order is
// randomized per run, so any of these turns bit-identical inputs into
// run-dependent output, breaking the run-to-run equality and
// golden-file invariants.
//
// Order-insensitive bodies are clean: accumulating into scalars,
// writing into another map, or mutating the ranged map's values. An
// append is also clean when the destination slice is sorted (sort.* or
// slices.Sort*) after the loop in the same block - the collect-then-
// sort idiom obs.WritePrometheus uses.
func MapIterationOrder() *Rule {
	return &Rule{
		Name:     "map-iteration-determinism",
		Doc:      "range over a map feeding output, appends, telemetry, or channel sends is run-order-dependent; collect keys and sort first (append-then-sort after the loop is clean)",
		Severity: Error,
		Applies: func(f *File) bool {
			return f.InPackage("internal") && !f.InPackage("internal/lint") && !f.IsTest
		},
		Check: func(f *File, r *Reporter) {
			if f.Info == nil {
				return // needs type resolution to know what is a map
			}
			// Walk with a parent stack so each range statement can see
			// the statements that follow it in its enclosing block.
			var stack []ast.Node
			ast.Inspect(f.AST, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				if rs, ok := n.(*ast.RangeStmt); ok && rangesOverMap(f.Info, rs) {
					checkMapRange(f, rs, stack, r)
				}
				stack = append(stack, n)
				return true
			})
		},
	}
}

// rangesOverMap reports whether the range statement iterates a map.
func rangesOverMap(info *types.Info, rs *ast.RangeStmt) bool {
	tv, ok := info.Types[rs.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// checkMapRange scans one map-range body for order-sensitive sinks.
func checkMapRange(f *File, rs *ast.RangeStmt, stack []ast.Node, r *Reporter) {
	after := stmtsAfter(rs, stack)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false // runs later, not per iteration
		case *ast.RangeStmt:
			if v != rs && rangesOverMap(f.Info, v) {
				return false // inner map range reported on its own
			}
		case *ast.SendStmt:
			r.Reportf(v.Pos(), "channel send inside a map range publishes values in randomized order; collect into a slice, sort, then send")
			return true
		case *ast.AssignStmt:
			checkAppendSink(f, v, after, r)
			return true
		case *ast.CallExpr:
			checkCallSink(f, v, r)
			return true
		}
		return true
	})
}

// stmtsAfter returns the statements that lexically follow stmt in its
// innermost enclosing block (where a post-loop sort would live).
func stmtsAfter(stmt ast.Stmt, stack []ast.Node) []ast.Stmt {
	for i := len(stack) - 1; i >= 0; i-- {
		var list []ast.Stmt
		switch v := stack[i].(type) {
		case *ast.BlockStmt:
			list = v.List
		case *ast.CaseClause:
			list = v.Body
		case *ast.CommClause:
			list = v.Body
		default:
			continue
		}
		for j, s := range list {
			if s == stmt {
				return list[j+1:]
			}
		}
	}
	return nil
}

// checkAppendSink flags `dst = append(dst, ...)` inside a map range
// when dst outlives the loop and is not sorted afterwards.
func checkAppendSink(f *File, as *ast.AssignStmt, after []ast.Stmt, r *Reporter) {
	for _, rhs := range as.Rhs {
		call, ok := unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		id, ok := unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "append" || !f.isBuiltin(id) {
			continue
		}
		if len(call.Args) == 0 {
			continue
		}
		dst := exprString(unparen(call.Args[0]))
		if sortedAfter(f, dst, after) {
			continue
		}
		r.Reportf(call.Pos(), "append inside a map range builds %s in randomized order; sort it after the loop (sort.Slice/slices.Sort) or iterate sorted keys", dst)
	}
}

// sortedAfter reports whether any statement after the loop calls a
// sort.* or slices.Sort* function mentioning dst.
func sortedAfter(f *File, dst string, after []ast.Stmt) bool {
	for _, s := range after {
		found := false
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := unparen(sel.X).(*ast.Ident)
			if !ok {
				return true
			}
			isSortPkg := (pkg.Name == f.ImportName("sort") && f.ImportName("sort") != "") ||
				(pkg.Name == f.ImportName("slices") && f.ImportName("slices") != "" && strings.HasPrefix(sel.Sel.Name, "Sort"))
			if !isSortPkg {
				return true
			}
			for _, arg := range call.Args {
				if mentionsExpr(arg, dst) {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// mentionsExpr reports whether the expression tree contains a
// sub-expression spelling dst.
func mentionsExpr(e ast.Expr, dst string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if sub, ok := n.(ast.Expr); ok && exprString(sub) == dst {
			found = true
			return false
		}
		return true
	})
	return found
}

// outputFuncs are the fmt functions that write to a stream (Sprint*
// returns a value and is judged by where that value flows, not here).
var outputFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// checkCallSink flags calls inside a map range that emit output or
// record telemetry.
func checkCallSink(f *File, call *ast.CallExpr, r *Reporter) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	// fmt.Print*/Fprint*: direct output per iteration.
	if pkg, ok := unparen(sel.X).(*ast.Ident); ok {
		if fmtName := f.ImportName("fmt"); fmtName != "" && pkg.Name == fmtName && !f.shadowed(pkg) && outputFuncs[sel.Sel.Name] {
			r.Reportf(call.Pos(), "fmt.%s inside a map range emits lines in randomized order; collect, sort, then print", sel.Sel.Name)
			return
		}
	}
	// Telemetry: any call that resolves into internal/obs (package
	// functions or methods on obs types) records events in map order.
	if f.Info == nil {
		return
	}
	if fn, ok := f.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil &&
		strings.HasSuffix(fn.Pkg().Path(), "internal/obs") && f.Pkg != nil &&
		!strings.HasSuffix(f.Pkg.ImportPath, "internal/obs") {
		r.Reportf(call.Pos(), "telemetry call %s.%s inside a map range records events in randomized order; iterate sorted keys", exprString(sel.X), sel.Sel.Name)
	}
}
