package analysis

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// DirectivePrefix introduces a suppression comment:
//
//	//simlint:ignore <analyzer> <reason>
//
// A trailing directive suppresses that analyzer's findings on its own
// line; a directive alone on a line suppresses findings on the next
// line. The reason is mandatory — an ignore without a stated reason is
// itself a finding — and <analyzer> must name a registered analyzer, or
// "all" to suppress every analyzer at that site.
const DirectivePrefix = "//simlint:ignore"

// directive is one parsed suppression comment.
type directive struct {
	pos      token.Pos
	analyzer string
	reason   string
	// line is the source line whose findings the directive suppresses.
	line int
	file string
}

// parseDirectives extracts every //simlint:ignore comment from file.
// Malformed directives (missing analyzer/reason, unknown analyzer) are
// returned as diagnostics attributed to the pseudo-analyzer "simlint";
// they cannot themselves be suppressed.
func parseDirectives(fset *token.FileSet, file *ast.File, valid map[string]bool) (dirs []directive, malformed []Diagnostic) {
	// Lines holding non-comment code: a directive on such a line is
	// trailing and applies to the same line; otherwise it applies to the
	// next line.
	codeLines := make(map[int]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, isComment := n.(*ast.Comment); isComment {
			return false
		}
		if _, isGroup := n.(*ast.CommentGroup); isGroup {
			return false
		}
		codeLines[fset.Position(n.Pos()).Line] = true
		return true
	})

	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, DirectivePrefix) {
				continue
			}
			rest := strings.TrimPrefix(text, DirectivePrefix)
			pos := fset.Position(c.Pos())
			if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
				// e.g. //simlint:ignoreXYZ — not ours.
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				malformed = append(malformed, Diagnostic{
					Pos:      c.Pos(),
					Analyzer: "simlint",
					Message:  "malformed directive: want \"//simlint:ignore <analyzer> <reason>\"",
				})
				continue
			}
			name := fields[0]
			if name != "all" && !valid[name] {
				malformed = append(malformed, Diagnostic{
					Pos:      c.Pos(),
					Analyzer: "simlint",
					Message:  "//simlint:ignore names unknown analyzer " + name,
				})
				continue
			}
			line := pos.Line
			if !codeLines[line] {
				line++ // own-line directive guards the next line
			}
			dirs = append(dirs, directive{
				pos:      c.Pos(),
				analyzer: name,
				reason:   strings.Join(fields[1:], " "),
				line:     line,
				file:     pos.Filename,
			})
		}
	}
	return dirs, malformed
}

// Suppress drops diagnostics covered by //simlint:ignore directives in
// files, appends diagnostics for malformed directives, and returns the
// result sorted by position. valid is the set of registered analyzer
// names used to validate directives.
func Suppress(fset *token.FileSet, files []*ast.File, valid map[string]bool, diags []Diagnostic) []Diagnostic {
	return suppress(fset, files, valid, diags, false)
}

// SuppressChecked is Suppress plus staleness enforcement: a directive
// that suppresses no diagnostic of the run is itself reported, under
// the pseudo-analyzer "unusedignore" (unsuppressable, like malformed
// directives). Only full-suite runs use this variant — a
// single-analyzer run (analysistest) would see every other analyzer's
// directives as stale.
func SuppressChecked(fset *token.FileSet, files []*ast.File, valid map[string]bool, diags []Diagnostic) []Diagnostic {
	return suppress(fset, files, valid, diags, true)
}

func suppress(fset *token.FileSet, files []*ast.File, valid map[string]bool, diags []Diagnostic, checkUnused bool) []Diagnostic {
	var dirs []directive
	var out []Diagnostic
	for _, f := range files {
		ds, bad := parseDirectives(fset, f, valid)
		dirs = append(dirs, ds...)
		out = append(out, bad...)
	}
	used := make([]bool, len(dirs))
	for _, d := range diags {
		p := fset.Position(d.Pos)
		suppressed := false
		for i, dir := range dirs {
			if dir.file == p.Filename && dir.line == p.Line &&
				(dir.analyzer == "all" || dir.analyzer == d.Analyzer) {
				suppressed = true
				used[i] = true
				// Keep scanning: a second directive on the same line
				// (e.g. "all" next to a named one) is also exercised.
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	if checkUnused {
		for i, dir := range dirs {
			if !used[i] {
				out = append(out, Diagnostic{
					Pos:      dir.pos,
					Analyzer: "unusedignore",
					Message:  "//simlint:ignore " + dir.analyzer + " suppresses no diagnostic; the directive is stale — remove it",
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := fset.Position(out[i].Pos), fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}
