// Command docscheck is the documentation lint behind `make docs-check`:
//
//  1. Markdown link check — every relative link in the repository's
//     *.md files must point at a file or directory that exists.
//  2. Godoc lint — every exported symbol of the client surface
//     (internal/ecfs: client.go, file.go, dial.go), of the cluster
//     entry points (cluster.go), of the OSD server the update methods
//     run in (osd.go), of the repair subsystem (repair.go, recovery.go,
//     scheduler.go) and of the block store every update method is built
//     from (internal/blockstore/blockstore.go) must carry a doc comment,
//     so neither the one data API, the operator-facing surface
//     documented in docs/OPERATIONS.md, nor the storage seam can
//     silently grow undocumented symbols. Exported methods of
//     unexported types are linted too: the layer table's strategy
//     methods and the block store's backends are read through them.
//
// It runs from the repository root (CI wires it into the verify job)
// and exits non-zero listing every violation.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// lintedFiles is the godoc-linted surface, relative to the repository
// root: the client and its File handle, the cluster's entry points
// (fail, crash, restart, resilver, scrub), the MDS with its durable op
// log and record catalog, the OSD server, the repair/drain engines with
// the cluster-level scheduler, the block store, the update strategies'
// shared interface and layer table, TSUE itself and its extent lists,
// the log pools and their recyclers,
// the durable storage engine and its checkpoint, and the GF(2^8) bulk
// kernel.
var lintedFiles = []string{
	"internal/ecfs/client.go",
	"internal/ecfs/file.go",
	"internal/ecfs/dial.go",
	"internal/ecfs/cluster.go",
	"internal/ecfs/mds.go",
	"internal/ecfs/mds_durable.go",
	"internal/mdslog/records.go",
	"internal/ecfs/osd.go",
	"internal/ecfs/repair.go",
	"internal/ecfs/recovery.go",
	"internal/ecfs/scheduler.go",
	"internal/blockstore/blockstore.go",
	"internal/update/strategy.go",
	"internal/update/layers.go",
	"internal/update/tsue.go",
	"internal/update/extents.go",
	"internal/logpool/pool.go",
	"internal/logpool/recycler.go",
	"internal/store/engine.go",
	"internal/store/meta.go",
	"internal/gf256/apply.go",
}

func main() {
	problems := checkLinks(".")
	problems = append(problems, checkGodoc(lintedFiles)...)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "docscheck:", p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}

// mdLink matches [text](target) and [text](target "title") links;
// images ([!...]) match too via the closing-bracket-paren pair.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// checkLinks walks root for Markdown files and verifies every relative
// link target exists on disk. External schemes and pure anchors are
// skipped; a target's own #anchor suffix is ignored.
func checkLinks(root string) []string {
	var problems []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "node_modules" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems, fmt.Sprintf("%s: broken link %q", path, m[1]))
			}
		}
		return nil
	})
	if err != nil {
		problems = append(problems, fmt.Sprintf("link walk: %v", err))
	}
	return problems
}

// checkGodoc parses the given Go files and reports every exported
// symbol that lacks a doc comment: functions and methods, types, and the
// individual specs of const/var blocks (a doc comment on the enclosing
// block covers its specs).
func checkGodoc(paths []string) []string {
	fset := token.NewFileSet()
	var problems []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, what, name))
	}
	for _, path := range paths {
		file, err := parser.ParseFile(fset, filepath.FromSlash(path), nil, parser.ParseComments)
		if err != nil {
			problems = append(problems, fmt.Sprintf("godoc parse %s: %v", path, err))
			continue
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				// Exported methods of unexported types count too: an
				// interface implementation (a backend, a heap, the
				// layer table's strategy methods) is read through them.
				if d.Name.IsExported() && d.Doc == nil {
					report(d.Pos(), "function", d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() && d.Doc == nil && sp.Doc == nil {
							report(sp.Pos(), "type", sp.Name.Name)
						}
					case *ast.ValueSpec:
						for _, name := range sp.Names {
							if name.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
								report(sp.Pos(), "value", name.Name)
							}
						}
					}
				}
			}
		}
	}
	return problems
}
