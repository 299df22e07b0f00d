// Package keysort keeps canonical-key encoding out of sort comparators.
// types.Key serializes a whole value to a freshly allocated string; inside a
// less/cmp function it runs twice per comparison, O(n log n) encodings of n
// values, which profiling found to be the dominant cost of repair and of
// canonical result ordering. The blessed shape is decorate–sort–undecorate:
// encode each value once (types.SortByKey, a types.TupleTable, or a keyed
// slice), then compare the stored strings.
package keysort

import (
	"go/ast"
	"go/types"

	"cleandb/internal/lint/analysis"
	"cleandb/internal/lint/lintutil"
)

// Analyzer flags types.Key calls inside sort comparators.
var Analyzer = &analysis.Analyzer{
	Name: "keysort",
	Doc: "types.Key must not be called from a sort comparator\n\n" +
		"Flags calls to types.Key lexically inside the func literal handed " +
		"to sort.Slice, sort.SliceStable, slices.SortFunc or " +
		"slices.SortStableFunc, and inside the Less method of a sort.Sort " +
		"adapter. The comparator runs O(n log n) times and each call " +
		"re-encodes a whole value; compute the keys once before sorting " +
		"(types.SortByKey, or a slice of precomputed keys) and compare those.",
	Run: run,
}

const typesPkg = "cleandb/internal/types"

// sortFuncs are the sort entry points that take a comparator, always as
// their second argument.
var sortFuncs = map[[2]string]bool{
	{"sort", "Slice"}:            true,
	{"sort", "SliceStable"}:      true,
	{"slices", "SortFunc"}:       true,
	{"slices", "SortStableFunc"}: true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	pass.Inspect(func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			fn := lintutil.Callee(pass.TypesInfo, x)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if !sortFuncs[[2]string{fn.Pkg().Path(), fn.Name()}] || len(x.Args) != 2 {
				return true
			}
			if lit, ok := ast.Unparen(x.Args[1]).(*ast.FuncLit); ok {
				reportKeyCalls(pass, lit.Body, fn.Pkg().Name()+"."+fn.Name()+" comparator")
			}
		case *ast.FuncDecl:
			if x.Body != nil && isLessMethod(pass.TypesInfo, x) {
				reportKeyCalls(pass, x.Body, "Less method")
			}
		}
		return true
	})
	return nil, nil
}

// isLessMethod matches sort.Interface's Less: a method Less(i, j int) bool.
func isLessMethod(info *types.Info, decl *ast.FuncDecl) bool {
	if decl.Recv == nil || decl.Name.Name != "Less" {
		return false
	}
	fn, _ := info.Defs[decl.Name].(*types.Func)
	if fn == nil {
		return false
	}
	sig := fn.Signature()
	if sig.Params().Len() != 2 || sig.Results().Len() != 1 {
		return false
	}
	isBasic := func(t types.Type, kind types.BasicKind) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Kind() == kind
	}
	return isBasic(sig.Params().At(0).Type(), types.Int) &&
		isBasic(sig.Params().At(1).Type(), types.Int) &&
		isBasic(sig.Results().At(0).Type(), types.Bool)
}

func reportKeyCalls(pass *analysis.Pass, body *ast.BlockStmt, where string) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if ok && lintutil.IsFunc(lintutil.Callee(pass.TypesInfo, call), typesPkg, "Key") {
			pass.Reportf(call.Pos(),
				"types.Key inside a %s re-encodes the value on every comparison; compute keys once before sorting (types.SortByKey, or precomputed keys) and compare those",
				where)
		}
		return true
	})
}
