package kvstore

import (
	"errors"
	"testing"

	"efdedup/internal/transport"
)

// TestErrorClassification pins the sentinel-wrapping contract the
// errclass analyzer enforces: every error built at a transport boundary
// must answer errors.Is for its class, so retry layers and callers can
// classify without string matching.
func TestErrorClassification(t *testing.T) {
	cases := []struct {
		name     string
		err      error
		sentinel error
	}{
		{"truncated length prefix", func() error {
			_, _, err := readBytes([]byte{0, 0})
			return err
		}(), ErrProto},
		{"truncated key list", func() error {
			_, err := decodeKeyList([]byte{1})
			return err
		}(), ErrProto},
		{"truncated entry sequence", func() error {
			_, err := decodeScan([]byte{0, 0, 0, 1})
			return err
		}(), ErrProto},
		{"empty cluster config", func() error {
			_, err := NewCluster(ClusterConfig{})
			return err
		}(), ErrConfig},
		{"cluster without network", func() error {
			_, err := NewCluster(ClusterConfig{Members: []string{"a"}})
			return err
		}(), ErrConfig},
	}
	for _, tc := range cases {
		if tc.err == nil {
			t.Fatalf("%s: expected an error", tc.name)
		}
		if !errors.Is(tc.err, tc.sentinel) {
			t.Errorf("%s: %v does not unwrap to %v", tc.name, tc.err, tc.sentinel)
		}
		// Protocol and configuration failures are terminal: the retry
		// layer must never classify them as worth re-sending.
		if errors.Is(tc.err, transport.ErrRefused) {
			t.Errorf("%s: misclassified as a dial refusal", tc.name)
		}
	}
}
