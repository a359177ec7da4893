package types_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"resilientdb/internal/types"

	// Imported for their message registrations: every package that defines a
	// types.Message registers its wire codec in an init function.
	_ "resilientdb/internal/bench"
	_ "resilientdb/internal/core"
	_ "resilientdb/internal/pbft"
	_ "resilientdb/internal/proto"
	_ "resilientdb/internal/snapshot"
)

// TestRegistryRoundTrip drives the wire codec from the registry itself:
// every registered message type must provide samples, and every sample must
// survive EncodeMessage → DecodeMessage → EncodeMessage byte-identically.
func TestRegistryRoundTrip(t *testing.T) {
	tags := types.RegisteredTags()
	if len(tags) < 22 {
		t.Fatalf("suspiciously few registered message types: %d", len(tags))
	}
	for _, tag := range tags {
		samples := types.SampleMessages(tag)
		if len(samples) == 0 {
			t.Errorf("%s: no samples registered", tag)
			continue
		}
		for i, m := range samples {
			if m.MsgType() != tag {
				t.Errorf("%s sample %d: MsgType() = %q", tag, i, m.MsgType())
				continue
			}
			first, err := types.EncodeMessage(m)
			if err != nil {
				t.Errorf("%s sample %d: encode: %v", tag, i, err)
				continue
			}
			decoded, err := types.DecodeMessage(first)
			if err != nil {
				t.Errorf("%s sample %d: decode: %v", tag, i, err)
				continue
			}
			if decoded.MsgType() != tag {
				t.Errorf("%s sample %d: decoded as %q", tag, i, decoded.MsgType())
				continue
			}
			second, err := types.EncodeMessage(decoded)
			if err != nil {
				t.Errorf("%s sample %d: re-encode: %v", tag, i, err)
				continue
			}
			if !bytes.Equal(first, second) {
				t.Errorf("%s sample %d: round-trip not byte-identical\n first: %x\nsecond: %x",
					tag, i, first, second)
			}
		}
	}
}

// TestDecodeRejectsMalformed spot-checks the decoder's error paths.
func TestDecodeRejectsMalformed(t *testing.T) {
	if _, err := types.DecodeMessage(nil); err == nil {
		t.Error("empty input decoded")
	}
	if _, err := types.DecodeMessage([]byte{0, 0, 0, 5, 'b', 'o', 'g', 'u', 's'}); err == nil {
		t.Error("unknown tag decoded")
	}
	// A valid message with trailing garbage must be rejected.
	for _, tag := range types.RegisteredTags() {
		m := types.SampleMessages(tag)[0]
		enc, err := types.EncodeMessage(m)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if _, err := types.DecodeMessage(append(enc, 0xff)); err == nil {
			t.Errorf("%s: trailing byte accepted", tag)
		}
		// Every truncation must error, never panic.
		for cut := 0; cut < len(enc); cut++ {
			if _, err := types.DecodeMessage(enc[:cut]); err == nil && cut < len(enc) {
				t.Errorf("%s: truncation to %d bytes accepted", tag, cut)
				break
			}
		}
	}
}

// TestEveryMessageTypeRegistered scans the repository source for MsgType
// methods — the marker of a types.Message implementation — and fails if any
// declared message tag lacks a registered wire codec. Adding a new message
// type without codec coverage breaks this test.
func TestEveryMessageTypeRegistered(t *testing.T) {
	registered := make(map[string]bool)
	for _, tag := range types.RegisteredTags() {
		registered[tag] = true
	}
	declared := declaredMessageTags(t, filepath.Join("..", ".."))
	if len(declared) == 0 {
		t.Fatal("source scan found no MsgType declarations")
	}
	for tag, pos := range declared {
		if !registered[tag] {
			t.Errorf("message type %q (%s) has no registered wire codec — add an "+
				"EncodeBody method and a types.RegisterMessage call in that package", tag, pos)
		}
	}
	for tag := range registered {
		if _, ok := declared[tag]; !ok {
			t.Errorf("registered tag %q has no MsgType declaration in the source tree", tag)
		}
	}
}

// declaredMessageTags parses every non-test .go file under root and returns
// each MsgType method's literal tag, keyed to its source position.
func declaredMessageTags(t *testing.T, root string) map[string]string {
	t.Helper()
	tags := make(map[string]string)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name != "MsgType" || fn.Recv == nil {
				continue
			}
			tag, ok := msgTypeLiteral(fn)
			if !ok {
				t.Errorf("%s: MsgType must return a single string literal", fset.Position(fn.Pos()))
				continue
			}
			tags[tag] = fset.Position(fn.Pos()).String()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("source scan: %v", err)
	}
	return tags
}

// msgTypeLiteral extracts the string literal from `return "tag"`.
func msgTypeLiteral(fn *ast.FuncDecl) (string, bool) {
	if fn.Body == nil || len(fn.Body.List) != 1 {
		return "", false
	}
	ret, ok := fn.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return "", false
	}
	lit, ok := ret.Results[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	tag, err := strconv.Unquote(lit.Value)
	return tag, err == nil
}

// FuzzDecodeMessage asserts DecodeMessage never panics on arbitrary input,
// and that anything it accepts re-encodes to a stable canonical form (the
// input itself may be non-canonical, e.g. a Bool byte of 2).
func FuzzDecodeMessage(f *testing.F) {
	for _, tag := range types.RegisteredTags() {
		for _, m := range types.SampleMessages(tag) {
			enc, err := types.EncodeMessage(m)
			if err != nil {
				f.Fatalf("%s: %v", tag, err)
			}
			f.Add(enc)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := types.DecodeMessage(data)
		if err != nil {
			return
		}
		enc, err := types.EncodeMessage(m)
		if err != nil {
			t.Fatalf("decoded %s does not re-encode: %v", m.MsgType(), err)
		}
		again, err := types.DecodeMessage(enc)
		if err != nil {
			t.Fatalf("canonical re-encoding of %s does not decode: %v", m.MsgType(), err)
		}
		enc2, err := types.EncodeMessage(again)
		if err != nil {
			t.Fatalf("%s: %v", again.MsgType(), err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("unstable canonical form for %s:\n first: %x\nsecond: %x",
				m.MsgType(), enc, enc2)
		}
	})
}
