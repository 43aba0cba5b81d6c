package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"

	"github.com/plutus-gpu/plutus/internal/lint/analysis"
	"github.com/plutus-gpu/plutus/internal/lint/simlint"
)

// finding is one rendered diagnostic, shared by the text and SARIF
// emitters.
type finding struct {
	ID       string
	Analyzer string
	File     string
	Line     int
	Column   int
	Message  string
}

// stableID fingerprints a diagnostic for cross-run identity (CI
// annotation dedup, baseline suppression). It hashes the analyzer,
// the root-relative path, and the message — not the line number, so
// unrelated edits above a finding don't mint a new identity.
func stableID(analyzer, relFile, message string) string {
	sum := sha256.Sum256([]byte(analyzer + "|" + relFile + "|" + message))
	return hex.EncodeToString(sum[:8])
}

// render converts diagnostics to findings with root-relative,
// slash-separated paths and stable IDs.
func render(fset *token.FileSet, diags []analysis.Diagnostic) []finding {
	root, err := os.Getwd()
	if err != nil {
		root = ""
	}
	out := make([]finding, 0, len(diags))
	for _, d := range diags {
		p := fset.Position(d.Pos)
		file := p.Filename
		if root != "" {
			if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = rel
			}
		}
		file = filepath.ToSlash(file)
		out = append(out, finding{
			ID:       stableID(d.Analyzer, file, d.Message),
			Analyzer: d.Analyzer,
			File:     file,
			Line:     p.Line,
			Column:   p.Column,
			Message:  d.Message,
		})
	}
	return out
}

// sarifRules describes every analyzer in the suite plus the two
// pseudo-analyzers diagnostics can carry: "simlint" (malformed
// directives) and "unusedignore" (stale directives).
func sarifRules() []map[string]any {
	var rules []map[string]any
	add := func(id, doc string) {
		rules = append(rules, map[string]any{
			"id": id,
			"shortDescription": map[string]any{
				"text": doc,
			},
		})
	}
	for _, a := range simlint.Analyzers() {
		add(a.Name, a.Doc)
	}
	add("simlint", "malformed //simlint:ignore directive")
	add("unusedignore", "//simlint:ignore directive that suppresses no diagnostic")
	return rules
}

// emitSARIF writes a SARIF 2.1.0 log for CI code-scanning upload.
func emitSARIF(fs []finding) error {
	results := make([]map[string]any, 0, len(fs))
	for _, f := range fs {
		results = append(results, map[string]any{
			"ruleId": f.Analyzer,
			"level":  "error",
			"message": map[string]any{
				"text": f.Message,
			},
			"partialFingerprints": map[string]any{
				"simlintId/v1": f.ID,
			},
			"locations": []map[string]any{{
				"physicalLocation": map[string]any{
					"artifactLocation": map[string]any{
						"uri":       f.File,
						"uriBaseId": "%SRCROOT%",
					},
					"region": map[string]any{
						"startLine":   f.Line,
						"startColumn": f.Column,
					},
				},
			}},
		})
	}
	log := map[string]any{
		"$schema": "https://json.schemastore.org/sarif-2.1.0.json",
		"version": "2.1.0",
		"runs": []map[string]any{{
			"tool": map[string]any{
				"driver": map[string]any{
					"name":           "simlint",
					"informationUri": "https://github.com/plutus-gpu/plutus",
					"rules":          sarifRules(),
				},
			},
			"results": results,
		}},
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

func emitText(fs []finding) {
	for _, f := range fs {
		fmt.Printf("%s:%d:%d: %s (%s %s)\n", f.File, f.Line, f.Column, f.Message, f.Analyzer, f.ID)
	}
}
