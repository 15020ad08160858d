package blobdir

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const suffix = ".v1.test"

func key(b byte) (k [32]byte) {
	k[0] = b
	return k
}

// tmpFiles lists leftover temp files in dir.
func tmpFiles(t *testing.T, dir string) []string {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	return left
}

func TestRoundTrip(t *testing.T) {
	d, err := Open(filepath.Join(t.TempDir(), "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	if data, err := d.Read(key(1), suffix); data != nil || err != nil {
		t.Fatalf("absent entry = (%q, %v), want (nil, nil)", data, err)
	}
	want := []byte("payload")
	if err := d.Write(key(1), suffix, want); err != nil {
		t.Fatal(err)
	}
	if got, err := d.Read(key(1), suffix); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back (%q, %v), want %q", got, err, want)
	}
	if got, err := d.Read(key(1), ".other"); got != nil || err != nil {
		t.Fatalf("other suffix = (%q, %v), want a miss", got, err)
	}
	if err := d.Write(key(2), suffix, nil); err != nil {
		t.Fatal(err)
	}
	if got, err := d.Read(key(2), suffix); err != nil || got == nil || len(got) != 0 {
		t.Fatalf("empty entry = (%v, %v), want a non-nil empty slice", got, err)
	}
	if name := filepath.Base(d.Path(key(1), suffix)); name != "01"+strings.Repeat("00", 31)+suffix {
		t.Fatalf("entry name %q", name)
	}
	if left := tmpFiles(t, d.path); len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

func TestNilDirIsAbsent(t *testing.T) {
	var d *Dir
	if err := d.Write(key(1), suffix, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if data, err := d.Read(key(1), suffix); data != nil || err != nil {
		t.Fatalf("nil dir read = (%q, %v), want (nil, nil)", data, err)
	}
}

// TestWriteRenameFails puts a directory where the entry belongs, so the
// final rename fails: the write reports it, removes its temp file, and
// the entry still reads as a miss.
func TestWriteRenameFails(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(d.Path(key(3), suffix), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(key(3), suffix, []byte("payload")); err == nil {
		t.Fatal("write over a directory succeeded")
	}
	if left := tmpFiles(t, d.path); len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
	if data, _ := d.Read(key(3), suffix); data != nil {
		t.Fatalf("failed write is readable: %q", data)
	}
}

// TestWriteCreateTempFails removes the directory under an open store, so
// creating the temp file fails: the write reports it and does not panic.
func TestWriteCreateTempFails(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(key(4), suffix, []byte("payload")); err == nil {
		t.Fatal("write into a removed directory succeeded")
	}
}

// TestOnlyWriter is the static guard that keeps this package the one
// atomic writer: no non-test Go file elsewhere in the repository may call
// os.CreateTemp or os.Rename.
func TestOnlyWriter(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	self, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	banned := map[string]bool{"CreateTemp": true, "Rename": true}
	fset := token.NewFileSet()
	scanned := 0
	err = filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path == self || path != root && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		scanned++
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "os" {
				local = "os"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == local && banned[sel.Sel.Name] {
				t.Errorf("%s: os.%s outside internal/blobdir; publish files through blobdir.Dir.Write",
					fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned < 50 {
		t.Fatalf("scanned only %d files under %s; is the repository root right?", scanned, root)
	}
}
