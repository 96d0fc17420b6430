package wire

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"efdedup/lint/internal/load"
)

// codecSrc stubs internal/codec: the extractor recognizes it by package
// name.
const codecSrc = `package codec

func U8(dst []byte, v uint8) []byte       { return dst }
func U16(dst []byte, v uint16) []byte     { return dst }
func U32(dst []byte, v uint32) []byte     { return dst }
func U64(dst []byte, v uint64) []byte     { return dst }
func ID(dst []byte, id [32]byte) []byte   { return dst }
func Bytes16(dst []byte, s string) []byte { return dst }
func Bytes32(dst []byte, s []byte) []byte { return dst }

type Reader struct{ buf []byte }

func NewReader(b []byte, proto error) Reader { return Reader{buf: b} }

func (r *Reader) Len() int             { return 0 }
func (r *Reader) Err() error           { return nil }
func (r *Reader) End() error           { return nil }
func (r *Reader) U8() uint8            { return 0 }
func (r *Reader) U16() uint16          { return 0 }
func (r *Reader) U32() uint32          { return 0 }
func (r *Reader) U64() uint64          { return 0 }
func (r *Reader) ID() (id [32]byte)    { return id }
func (r *Reader) Bytes16() []byte      { return nil }
func (r *Reader) Bytes32() []byte      { return nil }
func (r *Reader) Rest() []byte         { return nil }
func (r *Reader) Count(min uint64) int { return 0 }
`

// buildPkgs type-checks the codec stub and one package p importing it.
func buildPkgs(t *testing.T, src string) []*load.Package {
	t.Helper()
	fset := token.NewFileSet()
	var pkgs []*load.Package
	imp := &overlayImporter{pkgs: map[string]*types.Package{}}
	for _, s := range []struct{ path, src string }{{"codec", codecSrc}, {"p", src}} {
		f, err := parser.ParseFile(fset, s.path+".go", s.src, 0)
		if err != nil {
			t.Fatal(err)
		}
		info := load.NewInfo()
		tpkg, err := (&types.Config{Importer: imp}).Check(s.path, fset, []*ast.File{f}, info)
		if err != nil {
			t.Fatal(err)
		}
		imp.pkgs[s.path] = tpkg
		pkgs = append(pkgs, &load.Package{PkgPath: s.path, Files: []*ast.File{f}, Types: tpkg, Info: info})
	}
	return pkgs
}

// layouts extracts each "dir name" of p from src and renders it.
func layouts(t *testing.T, src string, want map[string]string) {
	t.Helper()
	ex := NewExtractor(buildPkgs(t, src))
	for key, w := range want {
		dir := Encode
		name := key[len("encode "):]
		if key[:len("decode")] == "decode" {
			dir = Decode
		}
		got := "<nil>"
		if l := ex.Layout("p."+name, dir); l != nil {
			got = l.String()
		}
		if got != w {
			t.Errorf("%s = %q, want %q", key, got, w)
		}
	}
}

const fieldsSrc = `package p

import "codec"

var errProto error

func encodeAll(a uint8, b uint16, c uint32, d uint64, id [32]byte, name string, blob []byte) []byte {
	out := codec.U8(nil, a)
	out = codec.U16(out, b)
	out = codec.U32(out, c)
	out = codec.U64(codec.U64(out, d), 0)
	out = codec.ID(out, id)
	out = codec.Bytes16(out, name)
	return codec.Bytes32(out, blob)
}

func decodeAll(src []byte) (uint8, error) {
	r := codec.NewReader(src, errProto)
	a, _, _ := r.U8(), r.U16(), r.U32()
	if r.U64() != r.U64() {
		return 0, errProto
	}
	_ = r.ID()
	name := string(r.Bytes16())
	_ = name
	return a, r.End()
}

// Not codecs: no []byte result, no []byte input.
func encodeNothing(dst []byte) (uint32, error) { return uint32(len(codec.U32(dst, 1))), nil }
func decodeNothing(n int) uint32 {
	r := codec.NewReader(nil, errProto)
	return r.U32()
}
`

func TestFixedWidthLayouts(t *testing.T) {
	layouts(t, fieldsSrc, map[string]string{
		"encode encodeAll":     "u8 | u16 | u32 | u64 | u64 | array32 | bytes16 | bytes32",
		"decode decodeAll":     "u8 | u16 | u32 | u64 | u64 | array32 | bytes16",
		"encode encodeNothing": "<nil>",
		"decode decodeNothing": "<nil>",
	})
}

const listSrc = `package p

import "codec"

var errProto error

type rec struct {
	key  []byte
	vals []uint64
}

func appendRec(dst []byte, r rec) []byte {
	dst = codec.Bytes32(dst, r.key)
	dst = codec.U32(dst, uint32(len(r.vals)))
	for _, v := range r.vals {
		dst = codec.U64(dst, v)
	}
	return dst
}

func encodeRecs(recs []rec, ids [][32]byte) []byte {
	size := 0
	for range recs {
		size += 8 // no codec call: not a field
	}
	out := codec.U32(make([]byte, 0, size), uint32(len(recs)))
	for _, r := range recs {
		out = appendRec(out, r)
	}
	for _, id := range ids {
		out = codec.ID(out, id)
	}
	return out
}

func readRec(r *codec.Reader) rec {
	out := rec{key: r.Bytes32()}
	for range r.Count(8) {
		out.vals = append(out.vals, r.U64())
	}
	return out
}

func decodeIDs(src []byte) ([][32]byte, error) {
	r := codec.NewReader(src, errProto)
	var ids [][32]byte
	for r.Len() > 0 {
		ids = append(ids, r.ID())
	}
	return ids, r.Err()
}

func decodeRecs(src []byte) ([]rec, [][32]byte, error) {
	r := codec.NewReader(src, errProto)
	n := r.Count(12)
	recs := make([]rec, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, readRec(&r))
	}
	ids, err := decodeIDs(r.Rest())
	return recs, ids, err
}
`

// TestListLayouts pins counts before loops as list32, other loops as
// repeat, and calls of other codecs — by buffer, by *Reader or by the
// rest of the body — as their fields.
func TestListLayouts(t *testing.T) {
	layouts(t, listSrc, map[string]string{
		"encode appendRec":  "bytes32 | list32<u64>",
		"decode readRec":    "bytes32 | list32<u64> ; rest",
		"encode encodeRecs": "list32<bytes32 | list32<u64>> | repeat<array32>",
		"decode decodeRecs": "list32<bytes32 | list32<u64>> | repeat<array32>",
		"decode decodeIDs":  "repeat<array32>",
	})
}

const tailSrc = `package p

import "codec"

var errProto error

const frameReq = 1

func frame(dst []byte) []byte { return append(dst, 0, 0) }

func encodeReq(id uint64, method string, body []byte) []byte {
	buf := codec.U8(nil, frameReq)
	buf = codec.U64(buf, id)
	buf = codec.Bytes16(buf, method)
	return append(buf, body...)
}

func decodeReq(p []byte) (uint64, []byte, error) {
	r := codec.NewReader(p, errProto)
	kind, id, _, body := r.U8(), r.U64(), r.Bytes16(), r.Rest()
	if kind != frameReq {
		return 0, nil, errProto
	}
	return id, body, r.Err()
}

func encodeFramed(id [32]byte, data []byte) []byte {
	buf := codec.ID(frame(nil), id)
	return append(buf, data...)
}

func encodeResp(id uint64, err string, body []byte) []byte {
	buf := codec.U64(nil, id)
	if err != "" {
		return codec.Bytes16(codec.U8(buf, 1), err)
	}
	return append(codec.U8(buf, 0), body...)
}

func decodeResp(p []byte) (uint64, []byte, error) {
	r := codec.NewReader(p, errProto)
	id, status := r.U64(), r.U8()
	switch status {
	case 0:
		return id, r.Rest(), r.Err()
	}
	return id, nil, r.Err()
}
`

// TestTailAndOpaqueLayouts pins unprefixed payloads as tail, rest-
// returning decoders, and "?" for a foreign buffer transform and for
// codec calls under a condition.
func TestTailAndOpaqueLayouts(t *testing.T) {
	layouts(t, tailSrc, map[string]string{
		"encode encodeReq":    "u8 | u64 | bytes16 | tail",
		"decode decodeReq":    "u8 | u64 | bytes16 ; rest",
		"encode encodeFramed": "? | array32 | tail",
		"encode encodeResp":   "u64 | ? | u8 | tail",
		"decode decodeResp":   "u64 | u8 | ?",
	})
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
