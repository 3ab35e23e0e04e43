// Package lint implements albireo's repo-specific static analyzer.
//
// The simulator's headline guarantees - bit-identical results however
// the PLCGs are scheduled onto goroutines, SI units on every physical
// quantity, and noise draws that come only from injected *rand.Rand
// streams - are invariants nothing in the compiler enforces. This package builds a
// type-aware analyzer framework on the standard library's go/parser,
// go/types, and go/importer (no external dependencies; go.mod stays
// empty) and ships the repo-specific rules that keep those invariants
// honest. LoadModule type-checks the whole module; per-file rules get
// resolved identifiers, and module rules (hotpath-alloc-proof,
// lock-order, map-iteration-determinism) get a static call graph over
// the module (see callgraph.go).
//
// Each rule may be suppressed at a single site with a directive
// comment carrying a mandatory reason:
//
//	//lint:ignore <rule> <reason>
//
// The directive applies to findings on its own line (trailing
// comment) or on the line immediately below (standalone comment). A
// directive without a reason is ignored, so suppressions stay
// self-documenting.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Severity classifies a rule's findings. Error findings fail the
// build; Warn findings are advisory (heuristic rules).
type Severity int

const (
	// Warn marks heuristic findings that are printed but do not fail
	// the run unless strict mode is requested.
	Warn Severity = iota
	// Error marks findings that must be fixed or suppressed.
	Error
)

// String returns "warn" or "error".
func (s Severity) String() string {
	if s == Warn {
		return "warn"
	}
	return "error"
}

// Finding is one rule violation at one source position.
type Finding struct {
	Pos      token.Position
	Rule     string
	Severity Severity
	Message  string
}

// String renders the finding in the canonical file:line:col form the
// CLI prints.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
}

// File is the per-file context handed to each rule: the parsed AST plus
// the module-relative path rules use to scope themselves. Files loaded
// through LoadModule additionally carry go/types resolution (Info,
// Pkg); files parsed standalone leave them nil and rules fall back to
// syntactic heuristics.
type File struct {
	Fset *token.FileSet
	AST  *ast.File
	// RelPath is the slash-separated path relative to the module
	// root, e.g. "internal/noise/noise.go". Rules scope on it.
	RelPath string
	// IsTest reports whether the file name ends in _test.go.
	IsTest bool
	// Imports maps the local name of each import to its path, e.g.
	// "rand" -> "math/rand".
	Imports map[string]string
	// Info is the package's type-checker resolution (nil when the file
	// was parsed without loading its module).
	Info *types.Info
	// Pkg is the enclosing loaded package (nil without a module load).
	Pkg *Package
}

// Dir returns the module-relative directory of the file.
func (f *File) Dir() string { return path.Dir(f.RelPath) }

// InPackage reports whether the file lives in pkg or below it, where
// pkg is a module-relative directory like "internal/core".
func (f *File) InPackage(pkg string) bool {
	return f.Dir() == pkg || strings.HasPrefix(f.Dir(), pkg+"/")
}

// ImportName returns the local identifier under which importPath is
// imported in this file, or "" if it is not imported.
func (f *File) ImportName(importPath string) string {
	for name, p := range f.Imports {
		if p == importPath {
			return name
		}
	}
	return ""
}

// Rule is one analyzer: a name findings are reported (and suppressed)
// under, a severity, a scope predicate, and the check itself. A rule
// is either per-file (Check set) or module-wide (ModuleCheck set);
// module rules see the type-checked Module and run once per load.
type Rule struct {
	Name     string
	Doc      string
	Severity Severity
	// Applies reports whether the rule should run on the file at all.
	Applies func(*File) bool
	// Check inspects the file and reports findings (per-file rules).
	Check func(*File, *Reporter)
	// ModuleCheck inspects the whole loaded module (module rules:
	// call-graph and cross-function analyses).
	ModuleCheck func(*Module, *ModuleReporter)
}

// Reporter collects findings for one (file, rule) pair.
type Reporter struct {
	file     *File
	rule     *Rule
	findings *[]Finding
}

// Reportf records a finding at pos.
func (r *Reporter) Reportf(pos token.Pos, format string, args ...any) {
	p := r.file.Fset.Position(pos)
	p.Filename = r.file.RelPath
	*r.findings = append(*r.findings, Finding{
		Pos:      p,
		Rule:     r.rule.Name,
		Severity: r.rule.Severity,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ParseFile parses the Go source at diskPath and builds the File
// context, with relPath recorded as the module-relative path.
func ParseFile(fset *token.FileSet, diskPath, relPath string) (*File, error) {
	astF, err := parser.ParseFile(fset, diskPath, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	return NewFile(fset, astF, relPath), nil
}

// NewFile builds the File context for an already-parsed AST.
func NewFile(fset *token.FileSet, astF *ast.File, relPath string) *File {
	imports := make(map[string]string, len(astF.Imports))
	for _, spec := range astF.Imports {
		p, err := strconv.Unquote(spec.Path.Value)
		if err != nil {
			continue
		}
		name := path.Base(p)
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imports[name] = p
	}
	return &File{
		Fset:    fset,
		AST:     astF,
		RelPath: filepath.ToSlash(relPath),
		IsTest:  strings.HasSuffix(relPath, "_test.go"),
		Imports: imports,
	}
}

// ModuleReporter collects findings for one module rule. Positions are
// resolved against the module's FileSet and reported under the file's
// module-relative path.
type ModuleReporter struct {
	mod      *Module
	rule     *Rule
	findings *[]Finding
}

// Reportf records a finding at pos inside file f.
func (r *ModuleReporter) Reportf(f *File, pos token.Pos, format string, args ...any) {
	p := f.Fset.Position(pos)
	p.Filename = f.RelPath
	*r.findings = append(*r.findings, Finding{
		Pos:      p,
		Rule:     r.rule.Name,
		Severity: r.rule.Severity,
		Message:  fmt.Sprintf(format, args...),
	})
}

// CheckFile runs every applicable per-file rule on one parsed file and
// returns the surviving findings after //lint:ignore suppression,
// sorted by position. Module rules (ModuleCheck) are skipped; run them
// through CheckModule.
func CheckFile(f *File, rules []*Rule) []Finding {
	var findings []Finding
	for _, rule := range rules {
		if rule.Check == nil {
			continue
		}
		if rule.Applies != nil && !rule.Applies(f) {
			continue
		}
		rule.Check(f, &Reporter{file: f, rule: rule, findings: &findings})
	}
	findings = filterSuppressed(findings, suppressionsOf(f))
	sortFindings(findings)
	return findings
}

// CheckModule runs per-file rules over every file of the module and
// module rules over the module itself, applies //lint:ignore
// suppression, and returns the surviving findings sorted by position.
func CheckModule(m *Module, rules []*Rule) []Finding {
	var findings []Finding
	for _, f := range m.Files {
		for _, rule := range rules {
			if rule.Check == nil {
				continue
			}
			if rule.Applies != nil && !rule.Applies(f) {
				continue
			}
			rule.Check(f, &Reporter{file: f, rule: rule, findings: &findings})
		}
	}
	for _, rule := range rules {
		if rule.ModuleCheck == nil {
			continue
		}
		rule.ModuleCheck(m, &ModuleReporter{mod: m, rule: rule, findings: &findings})
	}
	sup := suppressions{}
	for _, f := range m.Files {
		sup.merge(f.RelPath, suppressionsOf(f))
	}
	findings = filterSuppressedByFile(findings, sup)
	sortFindings(findings)
	return findings
}

// ignoreDirectivePrefix introduces a suppression comment.
const ignoreDirectivePrefix = "lint:ignore"

// fileSuppressions maps rule name -> set of covered lines in one file.
type fileSuppressions map[string]map[int]bool

// suppressions maps module-relative file path -> that file's
// directive coverage.
type suppressions map[string]fileSuppressions

func (s suppressions) merge(rel string, fs fileSuppressions) {
	if len(fs) > 0 {
		s[rel] = fs
	}
}

// suppressionsOf collects the lines covered by well-formed
// //lint:ignore directives in f (the directive's own line and the
// line below).
func suppressionsOf(f *File) fileSuppressions {
	suppressed := fileSuppressions{}
	for _, group := range f.AST.Comments {
		for _, c := range group.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, ignoreDirectivePrefix) {
				continue
			}
			fields := strings.Fields(strings.TrimPrefix(text, ignoreDirectivePrefix))
			if len(fields) < 2 {
				// Directive without a reason: not honored.
				continue
			}
			rule := fields[0]
			line := f.Fset.Position(c.Pos()).Line
			if suppressed[rule] == nil {
				suppressed[rule] = make(map[int]bool)
			}
			suppressed[rule][line] = true
			suppressed[rule][line+1] = true
		}
	}
	return suppressed
}

// filterSuppressed drops findings covered by one file's directives.
func filterSuppressed(findings []Finding, sup fileSuppressions) []Finding {
	if len(sup) == 0 {
		return findings
	}
	kept := findings[:0]
	for _, fd := range findings {
		if sup[fd.Rule][fd.Pos.Line] {
			continue
		}
		kept = append(kept, fd)
	}
	return kept
}

// filterSuppressedByFile drops findings covered by the directives of
// the file each finding lands in.
func filterSuppressedByFile(findings []Finding, sup suppressions) []Finding {
	if len(sup) == 0 {
		return findings
	}
	kept := findings[:0]
	for _, fd := range findings {
		if sup[fd.Pos.Filename][fd.Rule][fd.Pos.Line] {
			continue
		}
		kept = append(kept, fd)
	}
	return kept
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}

// Run lints every .go file under root (skipping testdata, vendor, and
// dot-directories) with the given rules. The enclosing module -
// located by walking up from root to the nearest go.mod - is loaded
// and type-checked once, per-file and module rules both run over it,
// and the findings are filtered to the subtree under root. Paths in
// the returned findings are relative to the module root; if no go.mod
// is found, root itself anchors the relative paths.
func Run(root string, rules []*Rule) ([]Finding, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := LoadModule(absRoot)
	if err != nil {
		return nil, err
	}
	findings := CheckModule(mod, rules)
	// Scope to the requested subtree (module rules see the whole
	// module; reports outside root are dropped, matching the CLI's
	// pattern semantics).
	if rel, err := filepath.Rel(mod.Root, absRoot); err == nil && rel != "." {
		prefix := filepath.ToSlash(rel) + "/"
		kept := findings[:0]
		for _, fd := range findings {
			if strings.HasPrefix(fd.Pos.Filename, prefix) {
				kept = append(kept, fd)
			}
		}
		findings = kept
	}
	return findings, nil
}

// moduleRoot walks up from dir to the nearest directory containing
// go.mod. It falls back to dir when no go.mod is found.
func moduleRoot(dir string) string {
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			return dir
		}
		d = parent
	}
}
