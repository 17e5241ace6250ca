package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Normalize canonicalizes a trace for conformance comparison: span
// records (observational wall-clock latency evidence) and runtime gap
// markers (whose causes and timing depend on goroutine scheduling) are
// dropped, and sequence numbers are renumbered from 1. Timestamps are
// kept — under the virtual clock they are deterministic and part of
// the conformance contract.
func Normalize(recs []Record) []Record {
	out := make([]Record, 0, len(recs))
	var seq uint64
	for _, r := range recs {
		if r.Kind == KindSpan {
			continue
		}
		if r.Kind == KindFault && r.Name == "runtime" {
			continue
		}
		seq++
		r.Seq = seq
		out = append(out, r)
	}
	return out
}

// Digest computes the chained SHA-256 digest of a normalized trace:
// h_0 = 0, h_i = SHA256(h_{i-1} || canonicalJSON(rec_i)). The chain
// makes the digest order-sensitive — any inserted, dropped, reordered,
// or altered record changes every subsequent link. Canonical bytes
// come from encoding/json, which marshals map keys in sorted order.
func Digest(recs []Record) (string, error) {
	cur := make([]byte, sha256.Size)
	for i, r := range recs {
		data, err := json.Marshal(r)
		if err != nil {
			return "", fmt.Errorf("trace: digest record %d: %w", i, err)
		}
		h := sha256.New()
		h.Write(cur)
		h.Write(data)
		cur = h.Sum(nil)
	}
	return "sha256:" + hex.EncodeToString(cur), nil
}
