// Package compman implements GUPT's computation manager (paper Fig. 2): a
// server component that fronts the dataset manager and privacy budget for
// analysts, and a client library. Analysts never touch datasets or
// accountants directly — they submit a query over a length-prefixed binary
// framed protocol (wire.go); the trusted server resolves the dataset,
// charges the budget, runs the sample-and-aggregate engine across isolated
// chambers, and returns only the differentially private answer. The JSON
// codecs below remain for the admin HTTP surface and the one terminal
// error line sent to retired JSON-wire peers.
package compman

import (
	"encoding/json"
	"errors"
	"fmt"

	"gupt/internal/analytics"
	"gupt/internal/dp"
)

// Op names the protocol operations.
type Op string

// Protocol operations.
const (
	OpQuery    Op = "query"    // run a DP computation
	OpBudget   Op = "budget"   // read a dataset's remaining budget
	OpList     Op = "list"     // list registered dataset names
	OpStats    Op = "stats"    // read server activity counters
	OpRegister Op = "register" // register a dataset (data-owner side)
	OpSession  Op = "session"  // run a budget-distributed query batch (§5.2)
	OpQuantum  Op = "quantum"  // no-op liveness check
)

// RangeSpec is a serializable [lo, hi] interval.
type RangeSpec struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

func rangesToWire(rs []dp.Range) []RangeSpec {
	out := make([]RangeSpec, len(rs))
	for i, r := range rs {
		out[i] = RangeSpec{Lo: r.Lo, Hi: r.Hi}
	}
	return out
}

func rangesFromWire(rs []RangeSpec) ([]dp.Range, error) {
	out := rangesOf(rs)
	for i, r := range out {
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("range %d: %w", i, err)
		}
	}
	return out, nil
}

// ProgramSpec names an analysis program over the wire. Closures cannot
// cross the network, so analysts choose between the platform's built-in
// program library and an uploaded executable run under subprocess
// isolation.
type ProgramSpec struct {
	// Type selects the program: "mean", "median", "variance", "percentile",
	// "covariance", "histogram", "kmeans", "logreg", "linreg",
	// "naivebayes", or "binary".
	Type string `json:"type"`
	// Col is the target column for the scalar statistics; ColB is the
	// second column for "covariance".
	Col  int `json:"col,omitempty"`
	ColB int `json:"colB,omitempty"`
	// P is the quantile for "percentile".
	P float64 `json:"p,omitempty"`
	// Lo, Hi and Bins parameterize "histogram".
	Lo   float64 `json:"lo,omitempty"`
	Hi   float64 `json:"hi,omitempty"`
	Bins int     `json:"bins,omitempty"`
	// K, FeatureDims, Iters, Seed parameterize "kmeans"; FeatureDims,
	// LabelCol, Iters also parameterize "logreg".
	K           int     `json:"k,omitempty"`
	FeatureDims int     `json:"featureDims,omitempty"`
	LabelCol    int     `json:"labelCol,omitempty"`
	Iters       int     `json:"iters,omitempty"`
	LearnRate   float64 `json:"learnRate,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	// Path, Args and OutputDims describe an uploaded executable for
	// Type "binary": it speaks the sandbox stdin/stdout protocol and is
	// always run inside a subprocess chamber.
	Path       string   `json:"path,omitempty"`
	Args       []string `json:"args,omitempty"`
	OutputDims int      `json:"outputDims,omitempty"`
}

// ErrBadProgram is returned for unresolvable program specifications.
var ErrBadProgram = errors.New("compman: invalid program spec")

// resolve builds the in-process Program for a spec, or reports that the
// spec names a binary (which the server runs via subprocess chambers).
func (ps ProgramSpec) resolve() (analytics.Program, bool, error) {
	switch ps.Type {
	case "mean":
		return analytics.Mean{Col: ps.Col}, false, nil
	case "median":
		return analytics.Median{Col: ps.Col}, false, nil
	case "variance":
		return analytics.Variance{Col: ps.Col}, false, nil
	case "percentile":
		if ps.P <= 0 || ps.P >= 1 {
			return nil, false, fmt.Errorf("%w: percentile p=%v", ErrBadProgram, ps.P)
		}
		return analytics.Percentile{Col: ps.Col, P: ps.P}, false, nil
	case "kmeans":
		return analytics.KMeans{K: ps.K, FeatureDims: ps.FeatureDims, Iters: ps.Iters, Seed: ps.Seed}, false, nil
	case "covariance":
		return analytics.Covariance{ColA: ps.Col, ColB: ps.ColB}, false, nil
	case "histogram":
		if ps.Bins <= 0 || !(ps.Hi > ps.Lo) {
			return nil, false, fmt.Errorf("%w: histogram needs bins>0 and hi>lo", ErrBadProgram)
		}
		return analytics.Histogram{Col: ps.Col, Lo: ps.Lo, Hi: ps.Hi, Bins: ps.Bins}, false, nil
	case "logreg":
		lr := ps.LearnRate
		if lr == 0 {
			lr = 0.1
		}
		return analytics.LogisticRegression{
			FeatureDims: ps.FeatureDims, LabelCol: ps.LabelCol, Iters: ps.Iters, LearnRate: lr,
		}, false, nil
	case "linreg":
		return analytics.LinearRegression{FeatureDims: ps.FeatureDims, TargetCol: ps.LabelCol}, false, nil
	case "naivebayes":
		return analytics.NaiveBayes{FeatureDims: ps.FeatureDims, LabelCol: ps.LabelCol}, false, nil
	case "binary":
		if ps.Path == "" || ps.OutputDims <= 0 {
			return nil, false, fmt.Errorf("%w: binary needs path and outputDims", ErrBadProgram)
		}
		return nil, true, nil
	default:
		return nil, false, fmt.Errorf("%w: unknown type %q", ErrBadProgram, ps.Type)
	}
}

// TranslateSpec is a serializable stand-in for GUPT-helper's range
// translation function: output dimension i gets the (scaled, shifted)
// estimated input range of input dimension InputDim[i].
type TranslateSpec struct {
	InputDim []int     `json:"inputDim"`
	Scale    []float64 `json:"scale"`
	Offset   []float64 `json:"offset"`
}

func (ts *TranslateSpec) toFunc(outputDims int) (func([]dp.Range) []dp.Range, error) {
	if ts == nil {
		return nil, nil
	}
	if len(ts.InputDim) != outputDims || len(ts.Scale) != outputDims || len(ts.Offset) != outputDims {
		return nil, fmt.Errorf("compman: translate spec arity %d/%d/%d, want %d",
			len(ts.InputDim), len(ts.Scale), len(ts.Offset), outputDims)
	}
	dims := append([]int(nil), ts.InputDim...)
	scale := append([]float64(nil), ts.Scale...)
	offset := append([]float64(nil), ts.Offset...)
	return func(in []dp.Range) []dp.Range {
		out := make([]dp.Range, outputDims)
		for i := range out {
			d := dims[i]
			if d < 0 || d >= len(in) {
				d = 0
			}
			r := in[d].Scale(scale[i])
			out[i] = dp.Range{Lo: r.Lo + offset[i], Hi: r.Hi + offset[i]}
		}
		return out
	}, nil
}

// AccuracySpec is a serializable accuracy goal (paper §5.1).
type AccuracySpec struct {
	Rho        float64 `json:"rho"`
	Confidence float64 `json:"confidence"`
}

// RegisterSpec is the data-owner side of the protocol (paper Fig. 2): a
// dataset pushed over the wire with its lifetime budget. Registration is an
// owner/operator operation; deployments exposing the service to untrusted
// analysts should front the endpoint with transport-level authentication,
// which is out of scope here (as in the paper).
type RegisterSpec struct {
	Name string `json:"name"`
	// Rows carries the records inline; Columns optionally names them.
	Rows    [][]float64 `json:"rows"`
	Columns []string    `json:"columns,omitempty"`
	// TotalBudget is the dataset's lifetime ε budget.
	TotalBudget float64 `json:"totalBudget"`
	// Ranges optionally declares public attribute bounds.
	Ranges []RangeSpec `json:"ranges,omitempty"`
	// AgedFraction carves out the aged, non-private sample (§3.3).
	AgedFraction float64 `json:"agedFraction,omitempty"`
	Seed         int64   `json:"seed,omitempty"`
}

// SessionQuery is one member of a budget-distributed batch: a program plus
// its (tight) output ranges; the session, not the query, carries the ε.
type SessionQuery struct {
	Program      ProgramSpec `json:"program"`
	OutputRanges []RangeSpec `json:"outputRanges"`
	BlockSize    int         `json:"blockSize,omitempty"`
	Gamma        int         `json:"gamma,omitempty"`
	Seed         int64       `json:"seed,omitempty"`
}

// SessionSpec is the wire form of the §5.2 session: a total ε split across
// the queries in proportion to their noise scales and charged atomically.
type SessionSpec struct {
	TotalEpsilon float64        `json:"totalEpsilon"`
	Queries      []SessionQuery `json:"queries"`
}

// SessionResult is one query's outcome within a session response. A
// session's budget is charged atomically up front, so a query that fails
// mid-session reports its error here while the rest of the batch still
// runs; its allocated ε is consumed either way (§6.2).
type SessionResult struct {
	Output       []float64 `json:"output,omitempty"`
	EpsilonSpent float64   `json:"epsilonSpent"`
	Error        string    `json:"error,omitempty"`
	FailedBlocks int       `json:"failedBlocks,omitempty"`
}

// Request is one protocol message from client to server.
type Request struct {
	Op      Op     `json:"op"`
	Dataset string `json:"dataset,omitempty"`

	Program *ProgramSpec `json:"program,omitempty"`
	// Mode is "tight", "loose" or "helper".
	Mode         string         `json:"mode,omitempty"`
	OutputRanges []RangeSpec    `json:"outputRanges,omitempty"`
	InputRanges  []RangeSpec    `json:"inputRanges,omitempty"`
	Translate    *TranslateSpec `json:"translate,omitempty"`

	// Exactly one of Epsilon and Accuracy must be set for OpQuery.
	Epsilon  float64       `json:"epsilon,omitempty"`
	Accuracy *AccuracySpec `json:"accuracy,omitempty"`

	// Register carries the dataset payload for OpRegister.
	Register *RegisterSpec `json:"register,omitempty"`

	// Session carries the batch for OpSession.
	Session *SessionSpec `json:"session,omitempty"`

	BlockSize     int   `json:"blockSize,omitempty"`
	Gamma         int   `json:"gamma,omitempty"`
	AutoBlockSize bool  `json:"autoBlockSize,omitempty"`
	Seed          int64 `json:"seed,omitempty"`
	// QuantumMillis arms the timing defense for this query's blocks.
	QuantumMillis int64 `json:"quantumMillis,omitempty"`
	// UserLevel and UserColumn switch the privacy unit from records to
	// users identified by a column (paper §8.1, extension).
	UserLevel  bool `json:"userLevel,omitempty"`
	UserColumn int  `json:"userColumn,omitempty"`
	// PercentileLow/High select the Loose/Helper range-estimation pair;
	// zero selects the paper's default (0.25, 0.75).
	PercentileLow  float64 `json:"percentileLow,omitempty"`
	PercentileHigh float64 `json:"percentileHigh,omitempty"`

	// APIKey authenticates the caller when the server runs with tenancy
	// enabled (PR 8). Wire version 3 carries it as an optional tail; a
	// version-2 peer simply never sends one. The server resolves it to a
	// tenant id and NEVER echoes, logs, or audits the key itself.
	APIKey string `json:"apiKey,omitempty"`

	// DeadlineMillis is the caller's answer-by budget in milliseconds,
	// measured from the server's receipt of the request. The deadline-aware
	// scheduler orders queued queries earliest-deadline-first and refuses —
	// with a RetryAfterMillis hint, before any ε is charged — queries whose
	// deadline would expire in the queue. Zero means no client deadline.
	// Wire version 4 carries it as an optional request tail; older peers
	// simply never send one.
	DeadlineMillis int64 `json:"deadlineMillis,omitempty"`
}

// Response is one protocol message from server to client.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`

	// TraceID is the server-assigned correlation id for this operation
	// (queries and sessions): a random 128-bit hex string, never derived
	// from analyst input. Analysts can quote it to the operator, who can
	// find the query at /traces and in the audit log. Requests carry no
	// trace field at all — accepting analyst-supplied ids would let an
	// analyst forge audit correlation.
	TraceID string `json:"traceId,omitempty"`

	// Query results.
	Output          []float64   `json:"output,omitempty"`
	EpsilonSpent    float64     `json:"epsilonSpent,omitempty"`
	EffectiveRanges []RangeSpec `json:"effectiveRanges,omitempty"`
	NumBlocks       int         `json:"numBlocks,omitempty"`
	BlockSize       int         `json:"blockSize,omitempty"`
	FailedBlocks    int         `json:"failedBlocks,omitempty"`
	// EpsilonCharged is the privacy budget the operation consumed whether
	// or not it succeeded. A query that aborts after its charge settled
	// reports Error plus a non-zero EpsilonCharged — the §6.2 defense:
	// forcing failures never refunds budget.
	EpsilonCharged float64 `json:"epsilonCharged,omitempty"`

	// CacheHit marks an answer served from the noisy-answer cache: the
	// identical already-published release, re-sent at zero additional ε
	// (post-processing). EpsilonSpent then reports the ε the original
	// release consumed, while EpsilonCharged is zero — nothing was debited
	// for this repeat.
	CacheHit bool `json:"cacheHit,omitempty"`

	// Budget / list / stats / session results.
	Remaining float64         `json:"remaining,omitempty"`
	Datasets  []string        `json:"datasets,omitempty"`
	Stats     *ServerStats    `json:"stats,omitempty"`
	Session   []SessionResult `json:"session,omitempty"`

	// Tenant is the principal the server resolved and billed for this
	// operation (PR 8). Empty on tenancy-off servers. Wire version 3
	// carries it as an optional response tail.
	Tenant string `json:"tenant,omitempty"`
	// RetryAfterMillis is set on rate-limit rejections: the client should
	// back off at least this long before retrying. The rejection charged
	// zero ε — it happened before any budget admission.
	RetryAfterMillis int64 `json:"retryAfterMillis,omitempty"`
}

// The wire decoders below are the single entry points for every byte
// stream an untrusted peer controls: analyst requests into the server,
// server responses into the client, and worker replies into the pool.
// They are fuzzed (fuzz_test.go) and must never panic on arbitrary input.

// DecodeRequest parses one analyst request line.
func DecodeRequest(line []byte) (*Request, error) {
	var req Request
	if err := json.Unmarshal(line, &req); err != nil {
		return nil, fmt.Errorf("malformed request: %w", err)
	}
	return &req, nil
}

// DecodeResponse parses one server response line.
func DecodeResponse(line []byte) (*Response, error) {
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return nil, fmt.Errorf("malformed response: %w", err)
	}
	return &resp, nil
}

// DecodeWorkRequest parses one block-execution request line.
func DecodeWorkRequest(line []byte) (*WorkRequest, error) {
	var req WorkRequest
	if err := json.Unmarshal(line, &req); err != nil {
		return nil, fmt.Errorf("malformed work request: %w", err)
	}
	return &req, nil
}

// DecodeWorkResponse parses one worker reply line.
func DecodeWorkResponse(line []byte) (*WorkResponse, error) {
	var resp WorkResponse
	if err := json.Unmarshal(line, &resp); err != nil {
		return nil, fmt.Errorf("malformed work response: %w", err)
	}
	return &resp, nil
}
