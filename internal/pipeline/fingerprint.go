package pipeline

// The fingerprint is the canonical identity of a released answer, the key
// of the noisy-answer cache. Every field that can change the released
// distribution is hashed in a fixed order through qcache.Hasher, together
// with the dataset's content version, so the same query over mutated data
// keys apart. One fingerprinter serves both front ends: the skeleton below
// is shared, and only the program's identity comes from the front end
// (the wire program spec, or a type switch over the built-in Go
// programs). Serving a release on a match is safe by post-processing
// whatever the policy; distinctness is what keeps the cache useful. See
// SECURITY.md ("The noisy-answer cache as a side channel").

import (
	"gupt/internal/dp"
	"gupt/internal/qcache"
)

// scheme versions the hash layout. Bump it whenever a field is added or
// reordered, so keys from an older layout can never alias. Scheme 2 added
// the tenant; scheme 3 is the one skeleton shared by both front ends.
const scheme = 3

// Fingerprint computes the cache key of a single query run as tenant over
// the given dataset content version. ok is false when the query cannot be
// fingerprinted (see Query.Identity). The tenant partitions the cache:
// cross-tenant reuse would be safe by post-processing, but it would let
// tenant B probe whether tenant A already asked a question.
func Fingerprint(tenant string, q *Query, contentVersion uint64) (fp qcache.Fingerprint, ok bool) {
	h := header(tenant, "query", q.Dataset, contentVersion)
	if !writeQuery(h, q) {
		return fp, false
	}
	return h.Sum(), true
}

// sessionFingerprint computes the cache key of a whole session: its ε is
// distributed and charged atomically, so the batch re-releases as one
// unit.
func sessionFingerprint(tenant string, s *Session, contentVersion uint64) (fp qcache.Fingerprint, ok bool) {
	h := header(tenant, "session", s.Dataset, contentVersion)
	h.F64(s.Epsilon)
	h.Int(len(s.Members))
	for i := range s.Members {
		if !writeQuery(h, &s.Members[i]) {
			return fp, false
		}
	}
	return h.Sum(), true
}

func header(tenant, kind, datasetName string, contentVersion uint64) *qcache.Hasher {
	h := qcache.NewHasher()
	h.Int(scheme)
	h.Str(tenant)
	h.Str(kind)
	h.Str(datasetName)
	h.U64(contentVersion)
	return h
}

// writeQuery writes one query's program identity and skeleton, or reports
// that the identity cannot be written.
func writeQuery(h *qcache.Hasher, q *Query) bool {
	if q.Identity == nil || !q.Identity(h) {
		return false
	}
	h.Int(int(q.Mode))
	writeRanges(h, q.OutputRanges)
	writeRanges(h, q.InputRanges)
	h.F64(q.PercentileLow)
	h.F64(q.PercentileHigh)
	h.F64(q.Epsilon)
	h.Bool(q.Accuracy != nil)
	if q.Accuracy != nil {
		h.F64(q.Accuracy.Rho)
		h.F64(q.Accuracy.Confidence)
	}
	h.Int(q.BlockSize)
	h.Bool(q.AutoBlockSize)
	h.Int(q.Gamma)
	h.I64(q.Seed)
	h.I64(int64(q.Quantum))
	h.Bool(q.UserLevel)
	h.Int(q.UserColumn)
	return true
}

// writeRanges writes a count-prefixed range list.
func writeRanges(h *qcache.Hasher, rs []dp.Range) {
	h.Int(len(rs))
	for _, r := range rs {
		h.F64(r.Lo)
		h.F64(r.Hi)
	}
}
