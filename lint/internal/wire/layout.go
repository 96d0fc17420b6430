// Package wire reads the wire layouts of the module's codecs and indexes
// its RPC surface (method registrations and call sites). It is the
// substrate of the protocol analyzers (lenguard, wirelock) and of the
// lint/wire.lock schema lockfile: the store's collaborative index only
// works if every edge agent, KV node and the cloud store agree
// byte-for-byte on the frame format, and nothing in the type system
// checks that.
//
// Every byte format is built with internal/codec's appenders and read
// back through its Reader, so a codec's layout is the sequence of codec
// calls its function makes, in evaluation order: U32 reads as u32, ID as
// array32, Bytes16 as bytes16, a Count (or, when encoding, a U32) right
// before a loop as list32<the loop's fields>, any other loop of codec
// calls as repeat<…>, and a call of another codec function as that
// function's fields. What the extractor cannot read — a codec call under
// a condition, a foreign buffer transform — is a "?" field.
package wire

import (
	"fmt"
	"strings"
)

// Kind classifies one abstract wire field.
type Kind int

const (
	// KInvalid is the zero Kind; no extracted field carries it.
	KInvalid Kind = iota
	// KU8..KU64 are big-endian fixed-width unsigned integers.
	KU8
	KU16
	KU32
	KU64
	// KBytes is a length-prefixed blob; Field.Prefix holds the width of
	// the length prefix.
	KBytes
	// KArray is a fixed-size byte array (Field.Size bytes), e.g. a
	// 32-byte content hash.
	KArray
	// KList is a repetition of Field.Elem; Field.Prefix holds the width
	// of its count prefix, or KInvalid for a repetition that runs to the
	// end of the body.
	KList
	// KTail is the unprefixed remainder of the payload.
	KTail
	// KOpaque is a stretch the extractor cannot read.
	KOpaque
)

var kindNames = [...]string{"invalid", "u8", "u16", "u32", "u64", "bytes", "array", "list", "tail", "?"}

func (k Kind) String() string { return kindNames[k] }

// prefixDigits renders the width of a bytes/list prefix for layout
// strings: the 32 of bytes32.
func prefixDigits(k Kind) string { return strings.TrimPrefix(k.String(), "u") }

// Field is one abstract wire field.
type Field struct {
	Kind Kind
	// Prefix is the width of the length/count prefix (KBytes, KList).
	Prefix Kind
	// Size is the byte size of a KArray field.
	Size int
	// Elem is the element layout of a KList field.
	Elem []Field
}

// String renders the canonical single-token form used in layout strings
// and in wire.lock: u8 u16 u32 u64 bytes32 array16 tail ?
// list32<u64 | bytes32> repeat<array32>.
func (f Field) String() string {
	switch f.Kind {
	case KBytes:
		return "bytes" + prefixDigits(f.Prefix)
	case KArray:
		return fmt.Sprintf("array%d", f.Size)
	case KList:
		elems := make([]string, len(f.Elem))
		for i, e := range f.Elem {
			elems[i] = e.String()
		}
		if f.Prefix == KInvalid {
			return "repeat<" + strings.Join(elems, " | ") + ">"
		}
		return "list" + prefixDigits(f.Prefix) + "<" + strings.Join(elems, " | ") + ">"
	}
	return f.Kind.String()
}

// Dir distinguishes the two sides of a codec.
type Dir int

const (
	// Encode layouts come from functions that return a []byte built
	// with codec appenders.
	Encode Dir = iota
	// Decode layouts come from functions that read a []byte parameter,
	// or a *codec.Reader parameter, through a codec.Reader.
	Decode
)

func (d Dir) String() string {
	if d == Encode {
		return "encode"
	}
	return "decode"
}

// Layout is the extracted abstract layout of one codec function.
type Layout struct {
	// FuncID is the stable cross-package key (types.Func.FullName).
	FuncID string
	Pkg    string // the declaring package's path
	Dir    Dir
	Fields []Field
	// Rest marks a decoder that leaves the bytes after its fields to its
	// caller: it returns Reader.Rest, or it reads off a *codec.Reader it
	// was handed.
	Rest bool
}

// String renders the layout: "u32 | list32<bytes32> | tail", with
// "; rest" marking a rest-leaving decoder.
func (l *Layout) String() string {
	parts := make([]string, 0, len(l.Fields))
	for _, f := range l.Fields {
		parts = append(parts, f.String())
	}
	s := strings.Join(parts, " | ")
	if s == "" {
		s = "empty"
	}
	if l.Rest {
		s += " ; rest"
	}
	return s
}
