package compman

// The wire front end's half of the answer-cache fingerprint. The pipeline
// (internal/pipeline) hashes the query skeleton the same way for both
// front ends; this file converts a request to that skeleton and writes the
// program's identity: every ProgramSpec field, plus the translate spec.
// Two requests that differ only in representation — JSON field ordering,
// float formatting — fingerprint identically, because the binary codec and
// the hasher both see the decoded struct, not the bytes.

import (
	"time"

	"gupt/internal/aging"
	"gupt/internal/core"
	"gupt/internal/dp"
	"gupt/internal/pipeline"
	"gupt/internal/qcache"
)

// wireQuery converts a query request to the pipeline's canonical query.
// It never fails, so any decodable request has a fingerprint: what does
// not resolve (an unknown program or mode, a malformed range) is refused
// after the cache lookup by Server.resolve or the pipeline, and so never
// reaches the cache. req.Program must be set.
func wireQuery(req *Request) pipeline.Query {
	q := pipeline.Query{
		Dataset: req.Dataset,
		Name:    req.Program.Type,
		Identity: func(h *qcache.Hasher) bool {
			hashProgramSpec(h, req.Program)
			hashTranslateSpec(h, req.Translate)
			return true
		},
		Mode:           wireMode(req.Mode),
		OutputRanges:   rangesOf(req.OutputRanges),
		InputRanges:    rangesOf(req.InputRanges),
		PercentileLow:  req.PercentileLow,
		PercentileHigh: req.PercentileHigh,
		Epsilon:        req.Epsilon,
		BlockSize:      req.BlockSize,
		AutoBlockSize:  req.AutoBlockSize,
		Gamma:          req.Gamma,
		Seed:           req.Seed,
		Quantum:        time.Duration(req.QuantumMillis) * time.Millisecond,
		UserLevel:      req.UserLevel,
		UserColumn:     req.UserColumn,
	}
	if req.Accuracy != nil {
		q.Accuracy = &aging.AccuracyGoal{Rho: req.Accuracy.Rho, Confidence: req.Accuracy.Confidence}
	}
	return q
}

// wireMode maps the wire's mode names; an unknown name maps to -1, which
// Server.resolve refuses.
func wireMode(mode string) core.RangeMode {
	switch mode {
	case "tight", "":
		return core.ModeTight
	case "loose":
		return core.ModeLoose
	case "helper":
		return core.ModeHelper
	}
	return -1
}

// rangesOf converts wire ranges without validating them; the pipeline
// refuses a malformed range before anything is charged.
func rangesOf(rs []RangeSpec) []dp.Range {
	if rs == nil {
		return nil
	}
	out := make([]dp.Range, len(rs))
	for i, r := range rs {
		out[i] = dp.Range{Lo: r.Lo, Hi: r.Hi}
	}
	return out
}

// queryFingerprint computes the cache key for an OpQuery request run as
// tenant ("" = the single-tenant partition) against the given dataset
// content version.
func queryFingerprint(req *Request, tenant string, contentVersion uint64) qcache.Fingerprint {
	q := wireQuery(req)
	fp, _ := pipeline.Fingerprint(tenant, &q, contentVersion)
	return fp
}

// hashProgramSpec writes every ProgramSpec field, fixed order, after a tag
// that keeps wire identities apart from the embedded API's.
func hashProgramSpec(h *qcache.Hasher, ps *ProgramSpec) {
	h.Str("spec")
	h.Str(ps.Type)
	h.Int(ps.Col)
	h.Int(ps.ColB)
	h.F64(ps.P)
	h.F64(ps.Lo)
	h.F64(ps.Hi)
	h.Int(ps.Bins)
	h.Int(ps.K)
	h.Int(ps.FeatureDims)
	h.Int(ps.LabelCol)
	h.Int(ps.Iters)
	h.F64(ps.LearnRate)
	h.I64(ps.Seed)
	h.Str(ps.Path)
	h.Strs(ps.Args)
	h.Int(ps.OutputDims)
}

// hashTranslateSpec writes the helper-mode translate spec, the wire's
// stand-in for a translate closure.
func hashTranslateSpec(h *qcache.Hasher, ts *TranslateSpec) {
	h.Bool(ts != nil)
	if ts != nil {
		h.Ints(ts.InputDim)
		h.F64s(ts.Scale)
		h.F64s(ts.Offset)
	}
}
