package report

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the prose documents whose references must resolve. For
// ROADMAP.md only the open items count: its history names what earlier
// changes deleted.
var docFiles = []string{
	"README.md", "EXPERIMENTS.md", "DESIGN.md", "ROADMAP.md",
	filepath.Join(".claude", "skills", "verify", "SKILL.md"),
}

var (
	backtickRE = regexp.MustCompile("`[^`\n]+`")
	makeRE     = regexp.MustCompile(`(?:^|\s)make\s+([A-Za-z][\w-]*)`)
	// A repo path starts a word (or follows "./") and ends on a name
	// character, which drops ":line" suffixes and trailing punctuation.
	pathRE     = regexp.MustCompile(`(?:^|[^\w./-]|\./)((?:cmd|internal|artifacts)/[\w./*-]*[\w*])`)
	testNameRE = regexp.MustCompile(`\b(?:Test|Benchmark)[A-Z0-9_]\w*`)
	// qualRE is a qualified exported name, pkg.Name; a longer selector
	// (pkg.Type.Method) is checked by its first two components.
	qualRE     = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z]\w*)`)
	testDeclRE = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	targetRE   = regexp.MustCompile(`(?m)^([A-Za-z][\w-]*):`)
	allowRE    = regexp.MustCompile(`^(internal/[\w/]+\.go): (\*?\w+(?:\.\w+)?) — \S`)
)

// TestDocReferencesResolve checks the docs against the tree: every
// backticked `make X` is a Makefile target, every cmd/, internal/ and
// artifacts/ path exists unless the word "new" precedes it (a proposed
// file), and every Test…/Benchmark… named is declared in some Go file.
// A deletion or rename that leaves a reference behind fails here.
func TestDocReferencesResolve(t *testing.T) {
	root := filepath.Join("..", "..")
	mk, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range targetRE.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	declared := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range testDeclRE.FindAllStringSubmatch(string(src), -1) {
			declared[m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := internalDecls(filepath.Join(root, "internal"))
	if err != nil {
		t.Fatal(err)
	}

	for _, doc := range docFiles {
		raw, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		if doc == "ROADMAP.md" {
			text = openItems(text)
		}
		off := 0 // of line within text
		for i, line := range strings.Split(text, "\n") {
			where := func(format string, args ...any) {
				t.Errorf("%s:%d: "+format, append([]any{doc, i + 1}, args...)...)
			}
			for _, span := range backtickRE.FindAllString(line, -1) {
				for _, m := range makeRE.FindAllStringSubmatch(strings.Trim(span, "`"), -1) {
					if !targets[m[1]] {
						where("`make %s` names no Makefile target", m[1])
					}
				}
				for _, m := range qualRE.FindAllStringSubmatch(span, -1) {
					if decls, ok := pkgs[m[1]]; ok && !decls[m[2]] {
						where("%s.%s is declared nowhere in internal/%s", m[1], m[2], m[1])
					}
				}
			}
			for _, m := range pathRE.FindAllStringSubmatchIndex(line, -1) {
				path := line[m[2]:m[3]]
				if proposed(text[:off+m[2]]) {
					continue
				}
				if hits, _ := filepath.Glob(filepath.Join(root, path)); len(hits) == 0 {
					where("path %s does not exist", path)
				}
			}
			for _, name := range testNameRE.FindAllString(line, -1) {
				if !declared[name] {
					where("%s is declared nowhere in the tree", name)
				}
			}
			off += len(line) + 1
		}
	}
}

// internalDecls maps each package directory under dir to the names its
// Go files, tests included, declare at package level or as methods (the
// docs write pkg.Method for a method of the package's main type).
func internalDecls(dir string) (map[string]map[string]bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkgs := map[string]map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		files, err := filepath.Glob(filepath.Join(dir, e.Name(), "*.go"))
		if err != nil {
			return nil, err
		}
		decls := map[string]bool{}
		for _, path := range files {
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					decls[d.Name.Name] = true
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							decls[s.Name.Name] = true
						case *ast.ValueSpec:
							for _, n := range s.Names {
								decls[n.Name] = true
							}
						}
					}
				}
			}
		}
		pkgs[e.Name()] = decls
	}
	return pkgs, nil
}

// openItems returns ROADMAP.md from its "## Open items" heading up to
// the next second-level heading, blanking everything else so line
// numbers still match the file.
func openItems(roadmap string) string {
	lines := strings.Split(roadmap, "\n")
	in := false
	for i, l := range lines {
		if strings.HasPrefix(l, "## ") {
			in = l == "## Open items"
		}
		if !in {
			lines[i] = ""
		}
	}
	return strings.Join(lines, "\n")
}

// proposed reports whether the text before a path ends in the word
// "new" (the path may open a backtick span or start the next line), the
// way a plan names a file it will create.
func proposed(before string) bool {
	before = strings.TrimRight(strings.TrimSuffix(before, "`"), " \n")
	return strings.HasSuffix(before, " new") || strings.HasSuffix(before, "\nnew")
}

// TestReachAllowResolves checks scripts/reach.allow, the internal/
// functions `make reach` may find that no run executes: each line reads
// `file: function — reason`, and the file declares the function, named
// the way go tool covdata prints it (F, T.M or *T.M; a method of a
// generic type as plain M). A rename or a deletion that leaves a line
// behind fails here in seconds, not only in the two-minute make reach.
func TestReachAllowResolves(t *testing.T) {
	root := filepath.Join("..", "..")
	raw, err := os.ReadFile(filepath.Join(root, "scripts", "reach.allow"))
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		m := allowRE.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("reach.allow:%d: %q is not `file: function — reason`", i+1, line)
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(root, m[1]), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Errorf("reach.allow:%d: %v", i+1, err)
			continue
		}
		found := false
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && covName(fd) == m[2] {
				found = true
			}
		}
		if !found {
			t.Errorf("reach.allow:%d: %s declares no %s", i+1, m[1], m[2])
		}
	}
}

// covName is d's name as go tool covdata func prints it.
func covName(d *ast.FuncDecl) string {
	if d.Recv == nil {
		return d.Name.Name
	}
	typ, star := d.Recv.List[0].Type, ""
	if s, ok := typ.(*ast.StarExpr); ok {
		typ, star = s.X, "*"
	}
	if id, ok := typ.(*ast.Ident); ok {
		return star + id.Name + "." + d.Name.Name
	}
	return d.Name.Name // a generic type's method prints bare
}
