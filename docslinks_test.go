package sharedicache_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches inline markdown links: [text](target).
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// mdMention matches a bare markdown-file mention, with or without a
// relative path in front: SERVICE.md, docs/SERVICE.md.
var mdMention = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)

// TestDocsLinks walks the README and every markdown file under docs/
// and fails on dead relative links — the docs tree is allowed to
// point at code and at itself, so a moved file must take its links
// with it. External (scheme-qualified) and pure-fragment links are
// out of scope, as are the generated paper-retrieval files at the
// repo root. It also fails on a bare mention of a markdown file — in
// those files or in a comment anywhere in the main module's Go code —
// that does not exist next to the mention, at the repo root or under
// docs/.
func TestDocsLinks(t *testing.T) {
	var files []string
	for _, glob := range []string{"README.md", "docs/*.md"} {
		m, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) < 4 {
		t.Fatalf("found only %d markdown files; the docs tree is missing", len(files))
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(raw), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			target = strings.SplitN(target, "#", 2)[0]
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: dead relative link %q (resolved %s)", file, m[1], resolved)
			}
		}
		checkMentions(t, file, string(raw))
	}

	// Go comments across the main module (perfbench/ is its own module).
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "perfbench" || strings.HasPrefix(d.Name(), ".")) && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			checkMentions(t, path, cg.Text())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// checkMentions reports every markdown file mentioned in text that
// exists neither relative to file nor at the repo root nor under docs/.
func checkMentions(t *testing.T, file, text string) {
	t.Helper()
	for _, name := range mdMention.FindAllString(text, -1) {
		found := false
		for _, dir := range []string{filepath.Dir(file), ".", "docs"} {
			if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: mentions %s, which does not exist", file, name)
		}
	}
}
