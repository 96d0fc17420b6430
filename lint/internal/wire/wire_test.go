package wire

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"efdedup/lint/internal/load"
)

// buildPkg type-checks one synthetic package (stdlib imports allowed)
// and returns it wrapped for extraction.
func buildPkg(t *testing.T, src string) (*token.FileSet, *load.Package) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var imports []string
	for _, im := range f.Imports {
		imports = append(imports, im.Path.Value[1:len(im.Path.Value)-1])
	}
	exports, err := load.StdlibExports(".", imports)
	if err != nil {
		t.Fatalf("listing stdlib exports: %v", err)
	}
	info := load.NewInfo()
	conf := types.Config{Importer: load.NewExportImporter(fset, exports)}
	tpkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return fset, &load.Package{PkgPath: "p", Files: []*ast.File{f}, Types: tpkg, Info: info}
}

// layoutString extracts fn in the given direction and renders it.
func layoutString(t *testing.T, pkg *load.Package, fn string, dir Dir) string {
	t.Helper()
	ex := NewExtractor([]*load.Package{pkg})
	l := ex.Layout("p."+fn, dir)
	if l == nil {
		return "<nil>"
	}
	return l.String()
}

const fixedSrc = `package p

import "encoding/binary"

func encodeFixed(a uint32, b uint64, c uint16) []byte {
	out := make([]byte, 0, 14)
	out = binary.BigEndian.AppendUint32(out, a)
	out = binary.BigEndian.AppendUint64(out, b)
	return binary.BigEndian.AppendUint16(out, c)
}

func decodeFixed(src []byte) (uint32, uint64, uint16, error) {
	if len(src) < 14 {
		return 0, 0, 0, nil
	}
	a := binary.BigEndian.Uint32(src)
	b := binary.BigEndian.Uint64(src[4:])
	c := binary.BigEndian.Uint16(src[12:])
	return a, b, c, nil
}

func encodePut(a uint64, b uint32) []byte {
	out := make([]byte, 12)
	binary.BigEndian.PutUint64(out, a)
	binary.BigEndian.PutUint32(out[8:], b)
	return out
}
`

func TestFixedWidthLayouts(t *testing.T) {
	_, pkg := buildPkg(t, fixedSrc)
	if got := layoutString(t, pkg, "encodeFixed", Encode); got != "u32 | u64 | u16" {
		t.Errorf("encodeFixed = %q", got)
	}
	if got := layoutString(t, pkg, "decodeFixed", Decode); got != "u32 | u64 | u16" {
		t.Errorf("decodeFixed = %q", got)
	}
	if got := layoutString(t, pkg, "encodePut", Encode); got != "u64 | u32" {
		t.Errorf("encodePut = %q", got)
	}
}

const varintSrc = `package p

import "encoding/binary"

func encodeBlob(data []byte) []byte {
	out := make([]byte, 0, 10+len(data))
	out = binary.AppendUvarint(out, uint64(len(data)))
	return append(out, data...)
}

func decodeBlob(src []byte) ([]byte, error) {
	n, w := binary.Uvarint(src)
	if w <= 0 {
		return nil, nil
	}
	src = src[w:]
	if uint64(len(src)) < n {
		return nil, nil
	}
	return src[:n], nil
}
`

func TestVarintLayouts(t *testing.T) {
	_, pkg := buildPkg(t, varintSrc)
	if got := layoutString(t, pkg, "encodeBlob", Encode); got != "bytesv" {
		t.Errorf("encodeBlob = %q", got)
	}
	if got := layoutString(t, pkg, "decodeBlob", Decode); got != "bytesv" {
		t.Errorf("decodeBlob = %q", got)
	}
}

const nestedSrc = `package p

import "encoding/binary"

func appendB(dst, b []byte) []byte {
	dst = append(dst, byte(len(b)))
	return append(dst, b...)
}

func readB(src []byte) ([]byte, []byte, error) {
	if len(src) < 1 {
		return nil, nil, nil
	}
	n := src[0]
	if int(n) > len(src)-1 {
		return nil, nil, nil
	}
	return src[1 : 1+n], src[1+n:], nil
}

func encodeNested(groups [][]string) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(groups)))
	for _, g := range groups {
		out = binary.BigEndian.AppendUint16(out, uint16(len(g)))
		for _, s := range g {
			out = appendB(out, []byte(s))
		}
	}
	return out
}

func decodeNested(src []byte) ([][]string, error) {
	count := binary.BigEndian.Uint32(src)
	src = src[4:]
	out := make([][]string, 0, count)
	for i := uint32(0); i < count; i++ {
		inner := binary.BigEndian.Uint16(src)
		src = src[2:]
		var g []string
		for j := uint16(0); j < inner; j++ {
			b, rest, err := readB(src)
			if err != nil {
				return nil, err
			}
			g = append(g, string(b))
			src = rest
		}
		out = append(out, g)
	}
	return out, nil
}
`

func TestNestedListLayouts(t *testing.T) {
	_, pkg := buildPkg(t, nestedSrc)
	if got := layoutString(t, pkg, "appendB", Encode); got != "bytes8" {
		t.Errorf("appendB = %q", got)
	}
	if got := layoutString(t, pkg, "readB", Decode); got != "bytes8 ; rest" {
		t.Errorf("readB = %q", got)
	}
	want := "list32<list16<bytes8>>"
	if got := layoutString(t, pkg, "encodeNested", Encode); got != want {
		t.Errorf("encodeNested = %q, want %q", got, want)
	}
	if got := layoutString(t, pkg, "decodeNested", Decode); got != want {
		t.Errorf("decodeNested = %q, want %q", got, want)
	}
}

const asymSrc = `package p

import "encoding/binary"

func encodeAsym(a uint32, b uint64) []byte {
	out := binary.BigEndian.AppendUint32(nil, a)
	return binary.BigEndian.AppendUint64(out, b)
}

func decodeAsym(src []byte) (uint32, uint32) {
	a := binary.BigEndian.Uint32(src)
	b := binary.BigEndian.Uint32(src[4:])
	return a, b
}
`

// TestAsymmetricPairDiagnostic pins the exact Compare text codecpair
// prints for a width mismatch.
func TestAsymmetricPairDiagnostic(t *testing.T) {
	_, pkg := buildPkg(t, asymSrc)
	ex := NewExtractor([]*load.Package{pkg})
	enc := ex.Layout("p.encodeAsym", Encode)
	dec := ex.Layout("p.decodeAsym", Decode)
	if enc == nil || dec == nil {
		t.Fatalf("extraction failed: enc=%v dec=%v", enc, dec)
	}
	want := "field 2: encoder writes u64, decoder reads u32"
	if got := Compare(enc, dec); got != want {
		t.Errorf("Compare = %q, want %q", got, want)
	}
}

const tailSrc = `package p

import "encoding/binary"

const frameReq = 0x01

func encodeReq(id uint64, method string, body []byte) ([]byte, error) {
	b := make([]byte, 0, 10+len(method)+len(body))
	b = append(b, frameReq)
	b = binary.BigEndian.AppendUint64(b, id)
	b = append(b, byte(len(method)))
	b = append(b, method...)
	b = append(b, body...)
	return b, nil
}

func decodeReq(p []byte) (uint64, string, []byte, error) {
	if len(p) < 10 || p[0] != frameReq {
		return 0, "", nil, nil
	}
	id := binary.BigEndian.Uint64(p[1:9])
	ml := int(p[9])
	if len(p) < 10+ml {
		return 0, "", nil, nil
	}
	return id, string(p[10 : 10+ml]), p[10+ml:], nil
}

func encodeArr(h [32]byte, extra []byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(extra)))
	out = append(out, extra...)
	return append(out, h[:]...)
}

func decodeArr(src []byte) ([32]byte, []byte, error) {
	var h [32]byte
	n := binary.BigEndian.Uint32(src)
	if uint32(len(src)-4) < n {
		return h, nil, nil
	}
	extra := src[4 : 4+n]
	src = src[4+n:]
	if len(src) != len(h) {
		return h, nil, nil
	}
	copy(h[:], src)
	return h, extra, nil
}
`

func TestTailAndArrayLayouts(t *testing.T) {
	_, pkg := buildPkg(t, tailSrc)
	if got := layoutString(t, pkg, "encodeReq", Encode); got != "u8 | u64 | bytes8 | tail" {
		t.Errorf("encodeReq = %q", got)
	}
	if got := layoutString(t, pkg, "decodeReq", Decode); got != "u8 | u64 | bytes8 ; rest" {
		t.Errorf("decodeReq = %q", got)
	}
	ex := NewExtractor([]*load.Package{pkg})
	enc := ex.Layout("p.encodeReq", Encode)
	dec := ex.Layout("p.decodeReq", Decode)
	if msg := Compare(enc, dec); msg != "" {
		t.Errorf("encodeReq/decodeReq should pair: %s", msg)
	}
	if got := layoutString(t, pkg, "encodeArr", Encode); got != "bytes32 | array32" {
		t.Errorf("encodeArr = %q", got)
	}
	if got := layoutString(t, pkg, "decodeArr", Decode); got != "bytes32 | array32" {
		t.Errorf("decodeArr = %q", got)
	}
}

const rpcSrc = `package p

import "p/transport"

const (
	methodGet  = "p.get"
	methodPut  = "p.put"
	methodDead = "p.dead"
)

type Node struct{ srv *transport.Server }

func (n *Node) handle(method string, h transport.Handler) {
	n.srv.Handle(method, h)
}

func (n *Node) register() {
	n.handle(methodGet, nil)
	n.handle(methodPut, nil)
	n.srv.Handle(methodDead, nil)
}

type Cluster struct{ cl *transport.Client }

func (c *Cluster) call(method string, body []byte) ([]byte, error) {
	return c.attempt(method, body)
}

func (c *Cluster) attempt(method string, body []byte) ([]byte, error) {
	return c.cl.Call(method, body)
}

func (c *Cluster) Get(k []byte) ([]byte, error) { return c.call(methodGet, k) }
func (c *Cluster) Put(k []byte) ([]byte, error) { return c.call(methodPut, k) }
`

const rpcTransportSrc = `package transport

type Handler func([]byte) ([]byte, error)

type Server struct{}

func (s *Server) Handle(method string, h Handler) {}

type Client struct{}

func (c *Client) Call(method string, body []byte) ([]byte, error) { return nil, nil }
`

// TestRPCIndex pins wrapper-fixpoint site resolution: constant methods
// flowing through two levels of wrappers resolve, the wrappers' own
// forwarding calls do not count as sites, and registrations record
// their package.
func TestRPCIndex(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(name, src string) *ast.File {
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	tf := parse("t.go", rpcTransportSrc)
	info1 := load.NewInfo()
	conf := types.Config{}
	tpkg, err := conf.Check("p/transport", fset, []*ast.File{tf}, info1)
	if err != nil {
		t.Fatal(err)
	}
	imp := &overlayImporter{pkgs: map[string]*types.Package{"p/transport": tpkg}}
	pf := parse("p.go", rpcSrc)
	info2 := load.NewInfo()
	conf2 := types.Config{Importer: imp}
	ppkg, err := conf2.Check("p", fset, []*ast.File{pf}, info2)
	if err != nil {
		t.Fatal(err)
	}
	pkgs := []*load.Package{
		{PkgPath: "p/transport", Files: []*ast.File{tf}, Types: tpkg, Info: info1},
		{PkgPath: "p", Files: []*ast.File{pf}, Types: ppkg, Info: info2},
	}
	ix := BuildIndex(fset, pkgs)

	count := make(map[string]map[SiteKind]int)
	for _, s := range ix.Sites {
		if count[s.Method] == nil {
			count[s.Method] = make(map[SiteKind]int)
		}
		count[s.Method][s.Kind]++
	}
	for _, tc := range []struct {
		method string
		kind   SiteKind
		want   int
	}{
		{"p.get", Registration, 1},
		{"p.get", Call, 1},
		{"p.put", Registration, 1},
		{"p.put", Call, 1},
		{"p.dead", Registration, 1},
		{"p.dead", Call, 0},
	} {
		if got := count[tc.method][tc.kind]; got != tc.want {
			t.Errorf("method %s kind %d: %d sites, want %d (all: %+v)", tc.method, tc.kind, got, tc.want, ix.Sites)
		}
	}
}

type overlayImporter struct{ pkgs map[string]*types.Package }

func (o *overlayImporter) Import(path string) (*types.Package, error) {
	if p, ok := o.pkgs[path]; ok {
		return p, nil
	}
	return nil, nil
}

// TestLockRoundTrip pins the lockfile serialization.
func TestLockRoundTrip(t *testing.T) {
	l := &Lock{
		Methods: map[string]string{"kv.get": "efdedup/internal/kvstore"},
		Layouts: map[string]string{
			LayoutKey(Encode, "efdedup/internal/kvstore.encodeEntry"): "bytes32 | u64 | bytes32",
		},
	}
	parsed, err := ParseLock(l.Format())
	if err != nil {
		t.Fatal(err)
	}
	if diff := l.Diff(parsed); len(diff) != 0 {
		t.Errorf("round-trip diff: %v", diff)
	}
	parsed.Layouts[LayoutKey(Encode, "efdedup/internal/kvstore.encodeEntry")] = "bytes32 | u32 | bytes32"
	diff := l.Diff(parsed)
	if len(diff) != 1 {
		t.Fatalf("want one diff line, got %v", diff)
	}
}
