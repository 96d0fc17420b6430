package transport

import (
	"bytes"
	"testing"
)

// FuzzDecodeRequest: arbitrary bytes must never panic the request decoder,
// and anything that decodes must re-encode, through writeFrame, to an
// equivalent request.
func FuzzDecodeRequest(f *testing.F) {
	seed, _ := encodeRequest(nil, 42, "kv.get")
	f.Add(append(seed, "payload"...))
	f.Add([]byte{})
	f.Add([]byte{frameRequest})
	f.Add([]byte{frameRequest, 0, 0, 0, 0, 0, 0, 0, 1, 200}) // absurd method length
	f.Fuzz(func(t *testing.T, data []byte) {
		id, method, body, err := decodeRequest(data)
		if err != nil {
			return
		}
		if len(method) > 255 {
			t.Fatalf("decoded method longer than encodable: %d", len(method))
		}
		hdr, err := encodeRequest(nil, id, method)
		if err != nil {
			t.Fatalf("re-encode of decoded request failed: %v", err)
		}
		id2, m2, b2, err := decodeRequest(framed(t, hdr, body))
		if err != nil || id2 != id || m2 != method || !bytes.Equal(b2, body) {
			t.Fatalf("decode/encode not idempotent")
		}
	})
}

// FuzzDecodeResponse: the response decoder must be panic-free and
// idempotent through a re-encode.
func FuzzDecodeResponse(f *testing.F) {
	f.Add(append(encodeResponse(nil, 7, ""), "ok"...))
	f.Add(encodeResponse(nil, 8, "remote failure"))
	f.Add([]byte{frameResponse, 0, 0, 0, 0, 0, 0, 0, 1, statusError, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		id, body, remoteErr, err := decodeResponse(data)
		if err != nil {
			return
		}
		id2, b2, e2, err := decodeResponse(framed(t, encodeResponse(nil, id, remoteErr), body))
		if err != nil || id2 != id || e2 != remoteErr {
			t.Fatalf("decode/encode not idempotent")
		}
		if remoteErr == "" && !bytes.Equal(b2, body) {
			t.Fatalf("body corrupted through re-encode")
		}
	})
}
