// Package directive implements the mlpvet suppression comments:
//
//	//mlpvet:allow <analyzer> <reason>      line-scoped
//	//mlpvet:allowfile <analyzer> <reason>  file-scoped
//
// A line-scoped directive suppresses findings of the named analyzer on
// its own line (trailing comment) or on the line immediately below (a
// directive on its own line). A file-scoped directive suppresses every
// finding of that analyzer in the file — the clockcheck allowlist for
// genuinely wall-clock files like a test's real-time liveness guard.
//
// Suppressions cannot rot: a directive that suppresses nothing in a run
// that analyzed its file is itself reported as stale, and a directive
// with no reason is reported as undocumented. Both reports are
// unsuppressable — the escape hatch cannot hide its own misuse.
package directive

import (
	"go/ast"
	"go/token"
	"strings"

	"github.com/datastates/mlpoffload/tools/analyzers/analysis"
)

const (
	linePrefix = "mlpvet:allow "
	filePrefix = "mlpvet:allowfile "
)

type entry struct {
	pos       token.Pos
	file      string
	line      int
	fileScope bool
	reason    string
	used      bool
}

// Sheet is the set of directives for one analyzer across one package's
// files.
type Sheet struct {
	analyzer string
	entries  []*entry
	fset     *token.FileSet
}

// Collect gathers the directives naming analyzer from every comment in
// files.
func Collect(fset *token.FileSet, files []*ast.File, analyzer string) *Sheet {
	s := &Sheet{analyzer: analyzer, fset: fset}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue // /*…*/ comments are not directives
				}
				var rest string
				fileScope := false
				switch {
				case strings.HasPrefix(text, filePrefix):
					rest, fileScope = text[len(filePrefix):], true
				case strings.HasPrefix(text, linePrefix):
					rest = text[len(linePrefix):]
				default:
					continue
				}
				name, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
				if name != analyzer {
					continue
				}
				// Fixture files carry analysistest expectations inside
				// the directive comment; they are not part of the reason.
				if i := strings.Index(reason, "// want"); i >= 0 {
					reason = reason[:i]
				}
				pos := fset.Position(c.Pos())
				s.entries = append(s.entries, &entry{
					pos:       c.Pos(),
					file:      pos.Filename,
					line:      pos.Line,
					fileScope: fileScope,
					reason:    strings.TrimSpace(reason),
				})
			}
		}
	}
	return s
}

// Allowed reports whether a finding at pos is suppressed, consuming the
// matching directive so it cannot also be reported stale.
func (s *Sheet) Allowed(pos token.Pos) bool {
	p := s.fset.Position(pos)
	allowed := false
	for _, e := range s.entries {
		if e.file != p.Filename || e.reason == "" {
			continue
		}
		if e.fileScope || e.line == p.Line || e.line == p.Line-1 {
			e.used = true
			allowed = true
		}
	}
	return allowed
}

// Flush reports directive misuse through pass: directives with no reason
// and directives that suppressed nothing. Call after the analyzer has
// finished reporting.
func (s *Sheet) Flush(pass *analysis.Pass) {
	for _, e := range s.entries {
		switch {
		case e.reason == "":
			pass.Reportf(e.pos, "mlpvet:allow %s directive has no reason: document why this site is exempt", s.analyzer)
		case !e.used:
			pass.Reportf(e.pos, "stale mlpvet:allow %s directive: it suppresses no %s finding — remove it", s.analyzer, s.analyzer)
		}
	}
}
