package wire

import (
	"go/token"
	"sort"
	"testing"

	"efdedup/lint/internal/load"
)

// TestProductionLayouts extracts the real module's codecs and pins some
// of the layouts the lockfile carries. A failure here means either a wire
// format change (update the expectations and `make wire-lock`) or an
// extractor regression.
func TestProductionLayouts(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := load.Load(fset, "../../..", []string{"efdedup/..."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	ix := BuildIndex(fset, pkgs)

	want := map[string]string{
		LayoutKey(Encode, "efdedup/internal/kvstore.encodeEntry"):     "bytes32 | u64 | bytes32",
		LayoutKey(Decode, "efdedup/internal/kvstore.decodeEntry"):     "bytes32 | u64 | bytes32 ; rest",
		LayoutKey(Decode, "efdedup/internal/kvstore.readEntry"):       "bytes32 | u64 | bytes32 ; rest",
		LayoutKey(Encode, "efdedup/internal/kvstore.encodeKeyList"):   "list32<bytes32>",
		LayoutKey(Decode, "efdedup/internal/kvstore.decodeKeyList"):   "list32<bytes32>",
		LayoutKey(Decode, "efdedup/internal/kvstore.readBlobs"):       "list32<bytes32> ; rest",
		LayoutKey(Decode, "efdedup/internal/kvstore.readDigestReq"):   "u32 | u32 | list32<bytes32> | list32<bytes32> ; rest",
		LayoutKey(Encode, "efdedup/internal/kvstore.appendRecord"):    "? | bytes32 | u64 | bytes32",
		LayoutKey(Encode, "efdedup/internal/transport.encodeRequest"): "u8 | u64 | bytes8",
		LayoutKey(Decode, "efdedup/internal/transport.decodeRequest"): "u8 | u64 | bytes8 ; rest",
		LayoutKey(Encode, "efdedup/internal/cloudstore.encodeCommit"): "bytes16 | list32<array32 | bytes32> | repeat<array32>",
		LayoutKey(Decode, "efdedup/internal/cloudstore.decodeCommit"): "bytes16 | list32<array32 | bytes32> | repeat<array32>",
		LayoutKey(Encode, "efdedup/internal/cloudstore.encodeCount"):  "u32",
		LayoutKey(Decode, "efdedup/internal/cloudstore.decodeCount"):  "u32",
	}
	got := make(map[string]string)
	for fid, l := range ix.Encodes {
		got[LayoutKey(Encode, fid)] = l.String()
	}
	for fid, l := range ix.Decodes {
		got[LayoutKey(Decode, fid)] = l.String()
	}
	for k, w := range want {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: not extracted", k)
		} else if g != w {
			t.Errorf("%s = %q, want %q", k, g, w)
		}
	}

	methods := ix.Methods()
	if len(methods) < 12 {
		t.Errorf("only %d RPC methods indexed: %v", len(methods), methods)
	}

	// Dump the full surface when verbose, for lockfile review.
	if testing.Verbose() {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			t.Logf("%s = %s", k, got[k])
		}
		t.Logf("methods: %v", methods)
	}
}
