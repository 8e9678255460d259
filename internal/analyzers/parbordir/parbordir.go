// Package parbordir parses the repository's //parbor:* source
// directives, shared by every analyzer in internal/analyzers.
//
// The directives:
//
//	//parbor:hotpath
//	    On a function's doc comment. Declares the function part of the
//	    zero-allocation pass hot loop: hotalloc outlaws allocating
//	    constructs inside it and rngstream outlaws the allocating
//	    Split/SplitN stream derivations (use Child/At).
//
//	//parbor:wallclock <justification>
//	    On a function's doc comment, on the offending line, or on the
//	    line directly above it. Opts the site out of simdeterminism's
//	    wall-clock/environment checks. The justification is mandatory:
//	    a bare //parbor:wallclock is itself a diagnostic, so every
//	    opt-out records why reading the real clock cannot perturb
//	    simulation results (observational-only timing, stall
//	    detection, ...).
//
//	//parbor:planebuild
//	    On a function's doc comment. Declares the function part of
//	    mask-plane construction: allocation-heavy work that runs once
//	    per row at materialization, never per read. hotalloc forbids
//	    //parbor:hotpath functions from calling it — a hot-path call
//	    would rebuild planes on every read — and rejects a function
//	    annotated both hotpath and planebuild outright.
//
//	//parbor:guardedby <mu>
//	    On a struct field's doc or line comment. Declares that every
//	    access to the field must happen with the named sibling mutex
//	    field held; lockguard enforces it flow-sensitively over each
//	    function's control-flow graph. The argument is mandatory and
//	    must name a sync.Mutex or sync.RWMutex field of the same
//	    struct.
//
//	//parbor:unsync <justification>
//	    On the offending line, the line above it, or a function's doc
//	    comment. Opts an access out of lockguard's guardedby check.
//	    Justification mandatory: every sanctioned unsynchronized access
//	    records why it cannot race (value not yet published, reader
//	    tolerates staleness, ...).
//
//	//parbor:droperr <justification>
//	    Same placement rules. Opts a site on a durable path out of
//	    syncdrop's requirement that Sync/Close/Flush/WriteFileAtomic
//	    error results flow to a return or a sticky error field.
//	    Justification mandatory: every dropped durability error
//	    records why losing it cannot lose data (writer already
//	    poisoned, read-side close, ...).
//
// Directive comments deliberately use the Go directive shape (no
// space after //) so gofmt keeps them glued to their declarations.
package parbordir

import (
	"go/ast"
	"go/token"
	"strings"
)

const (
	// Hotpath is the //parbor:hotpath directive name.
	Hotpath = "parbor:hotpath"
	// Wallclock is the //parbor:wallclock directive name.
	Wallclock = "parbor:wallclock"
	// Planebuild is the //parbor:planebuild directive name: it marks
	// once-per-materialization plane construction, off-limits to
	// //parbor:hotpath callers.
	Planebuild = "parbor:planebuild"
	// Guardedby is the //parbor:guardedby directive name: on a struct
	// field, it names the sibling mutex field that must be held across
	// every access (lockguard).
	Guardedby = "parbor:guardedby"
	// Unsync is the //parbor:unsync directive name: it opts a site out
	// of lockguard's synchronized-access requirement.
	Unsync = "parbor:unsync"
	// Droperr is the //parbor:droperr directive name: it opts a site on
	// a durable path out of syncdrop's error-flow requirement.
	Droperr = "parbor:droperr"
)

// needsJustification lists the directives whose bare form (no
// trailing explanation) is itself a diagnostic.
var needsJustification = map[string]bool{
	Wallclock: true,
	Unsync:    true,
	Droperr:   true,
}

// parse splits a comment into (directive, justification) if it is a
// //parbor:* directive, else returns ok=false.
func parse(c *ast.Comment) (name, justification string, ok bool) {
	text, found := strings.CutPrefix(c.Text, "//")
	if !found {
		return "", "", false // a /* */ comment cannot be a directive
	}
	if !strings.HasPrefix(text, "parbor:") {
		return "", "", false
	}
	name, justification, _ = strings.Cut(text, " ")
	return name, strings.TrimSpace(justification), true
}

// groupHas reports whether any line of the comment group is the named
// directive.
func groupHas(g *ast.CommentGroup, directive string) bool {
	if g == nil {
		return false
	}
	for _, c := range g.List {
		if name, _, ok := parse(c); ok && name == directive {
			return true
		}
	}
	return false
}

// FuncHas reports whether the function's doc comment carries the
// named directive.
func FuncHas(decl *ast.FuncDecl, directive string) bool {
	return groupHas(decl.Doc, directive)
}

// FieldArg returns the argument of the named directive on a struct
// field's doc or line comment ("//parbor:guardedby mu" -> "mu").
// found distinguishes a directive with an empty argument from no
// directive at all.
func FieldArg(f *ast.Field, directive string) (arg string, found bool) {
	for _, g := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if name, justification, ok := parse(c); ok && name == directive {
				return justification, true
			}
		}
	}
	return "", false
}

// site records one occurrence of a directive.
type site struct {
	pos  token.Pos
	name string
}

// Index holds every //parbor:* directive of one package, resolved to
// file positions, plus the position ranges of functions whose doc
// comments carry directives.
type Index struct {
	fset *token.FileSet
	// lines maps directive name -> file -> set of line numbers the
	// directive suppresses (its own line and the line below it, so a
	// comment above a statement covers the statement).
	lines map[string]map[*token.File]map[int]bool
	// funcs maps directive name -> list of [pos, end] ranges of
	// functions annotated via their doc comment.
	funcs map[string][][2]token.Pos
	// bare lists directives that require a justification but have
	// none (wallclock, unsync and droperr).
	bare []site
}

// NewIndex scans the files of one package.
func NewIndex(fset *token.FileSet, files []*ast.File) *Index {
	ix := &Index{
		fset:  fset,
		lines: make(map[string]map[*token.File]map[int]bool),
		funcs: make(map[string][][2]token.Pos),
	}
	for _, f := range files {
		tf := fset.File(f.Pos())
		if tf == nil {
			continue
		}
		for _, g := range f.Comments {
			for _, c := range g.List {
				name, justification, ok := parse(c)
				if !ok {
					continue
				}
				byFile := ix.lines[name]
				if byFile == nil {
					byFile = make(map[*token.File]map[int]bool)
					ix.lines[name] = byFile
				}
				set := byFile[tf]
				if set == nil {
					set = make(map[int]bool)
					byFile[tf] = set
				}
				line := tf.Line(c.Pos())
				set[line] = true
				set[line+1] = true
				if needsJustification[name] && justification == "" {
					ix.bare = append(ix.bare, site{pos: c.Pos(), name: name})
				}
			}
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if ok && fd.Doc != nil {
				for _, c := range fd.Doc.List {
					if name, _, ok := parse(c); ok {
						ix.funcs[name] = append(ix.funcs[name], [2]token.Pos{fd.Pos(), fd.End()})
					}
				}
			}
		}
	}
	return ix
}

// SuppressedAt reports whether a diagnostic at pos is covered by the
// named directive: same line, the line directly below the directive,
// or anywhere inside a function annotated via its doc comment.
func (ix *Index) SuppressedAt(directive string, pos token.Pos) bool {
	tf := ix.fset.File(pos)
	if tf != nil {
		if set := ix.lines[directive][tf]; set != nil && set[tf.Line(pos)] {
			return true
		}
	}
	for _, r := range ix.funcs[directive] {
		if r[0] <= pos && pos < r[1] {
			return true
		}
	}
	return false
}

// BarePositions returns the positions of the named directive's
// occurrences that demand a justification but carry none.
func (ix *Index) BarePositions(directive string) []token.Pos {
	var out []token.Pos
	for _, s := range ix.bare {
		if s.name == directive {
			out = append(out, s.pos)
		}
	}
	return out
}
