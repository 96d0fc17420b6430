// Package codecpair checks encode/decode function pairs field-for-field
// against each other using the wire layouts lint/internal/wire reads off
// their internal/codec calls. A pair is two functions in one package
// whose names share a suffix under the codec prefixes
// (encode/append/marshal vs decode/read/parse/unmarshal): encodeEntry
// pairs with decodeEntry, appendChunkList with readChunkList. When
// a suffix has several encoders or decoders — a whole-body codec and the
// append/read helper it shares — each decoder pairs with the encoder of
// its own family: encodeX with decodeX, appendX with readX.
//
// When both sides extract to a structured layout, any field-level
// disagreement — width, prefix size, list element shape, extra or
// missing fields — is reported with both layouts printed, so the
// diagnostic shows the wire formats side by side instead of making the
// reader re-derive them. Pairs are compared only over the fields before
// the first "?" (what the extractor cannot read), so unrecognized code
// is silence, never a false mismatch.
package codecpair

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"efdedup/lint/analysis"
	"efdedup/lint/internal/wire"
)

// Analyzer detects asymmetric encode/decode pairs.
var Analyzer = &analysis.Analyzer{
	Name: "codecpair",
	Doc:  "encode/decode pairs must agree on the wire layout field-for-field",
	Run:  run,
}

var (
	encPrefixes = []string{"encode", "append", "marshal"}
	decPrefixes = []string{"decode", "read", "parse", "unmarshal"}
	// family maps a decoder prefix to its encoder prefix, for suffixes
	// with more than one pairing.
	family = map[string]string{"decode": "encode", "read": "append", "unmarshal": "marshal"}
)

// candidate is one codec-named function declared in this pass.
type candidate struct {
	fid    string
	name   string
	prefix string
	pos    token.Pos
}

func run(pass *analysis.Pass) error {
	ix := pass.Wire
	if ix == nil {
		return nil
	}
	encs := make(map[string][]candidate)
	decs := make(map[string][]candidate)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			c := candidate{fid: fn.FullName(), name: fd.Name.Name, pos: fd.Name.Pos()}
			if pre, suf, ok := trimAnyPrefix(fd.Name.Name, encPrefixes); ok {
				c.prefix = pre
				encs[suf] = append(encs[suf], c)
			}
			if pre, suf, ok := trimAnyPrefix(fd.Name.Name, decPrefixes); ok {
				c.prefix = pre
				decs[suf] = append(decs[suf], c)
			}
		}
	}
	for suf, ds := range decs {
		for _, d := range ds {
			e, ok := partner(d, encs[suf], len(ds))
			if !ok {
				continue
			}
			enc := ix.Layout(e.fid, wire.Encode)
			dec := ix.Layout(d.fid, wire.Decode)
			if enc == nil || dec == nil || len(enc.Fields) == 0 || len(dec.Fields) == 0 {
				continue
			}
			if msg := wire.Compare(enc, dec); msg != "" {
				pass.Reportf(d.pos, "wire layout mismatch between %s and %s: %s (encoder layout: %s; decoder layout: %s)",
					e.name, d.name, msg, enc, dec)
			}
		}
	}
	return nil
}

// partner returns a decoder's encoder: the one encoder of its suffix if
// the decoder is the only one too, else the one encoder of the decoder's
// family. Anything else has no well-defined pairing and stays silent.
func partner(d candidate, es []candidate, decoders int) (candidate, bool) {
	if len(es) == 1 && decoders == 1 {
		return es[0], true
	}
	var match []candidate
	for _, e := range es {
		if e.prefix == family[d.prefix] {
			match = append(match, e)
		}
	}
	if len(match) != 1 {
		return candidate{}, false
	}
	return match[0], true
}

// trimAnyPrefix strips the first matching codec prefix, returning it and
// the lowercased remainder. A bare prefix name ("read") is not a codec.
func trimAnyPrefix(name string, prefixes []string) (prefix, suffix string, ok bool) {
	lower := strings.ToLower(name)
	for _, p := range prefixes {
		if strings.HasPrefix(lower, p) && len(name) > len(p) {
			return p, lower[len(p):], true
		}
	}
	return "", "", false
}
