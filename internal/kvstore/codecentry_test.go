package kvstore

import "efdedup/internal/codec"

// readBytes, readBytesList and decodeDigestReq are []byte entry points to
// the blob and scope-filter codecs for the fuzzers and codec tests: each
// returns the bytes after what it read.

func readBytes(src []byte) (val, rest []byte, err error) {
	r := codec.NewReader(src, ErrProto)
	val = r.Bytes32()
	return val, r.Rest(), r.Err()
}

func readBytesList(src []byte) ([][]byte, []byte, error) {
	r := codec.NewReader(src, ErrProto)
	out := readBlobs(&r)
	return out, r.Rest(), r.Err()
}

func decodeDigestReq(src []byte) (digestReq, []byte, error) {
	r := codec.NewReader(src, ErrProto)
	req, err := readDigestReq(&r)
	return req, r.Rest(), err
}
