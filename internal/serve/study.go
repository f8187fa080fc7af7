package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"powerrchol/internal/workload"
)

// POST /v1/study runs a bounded workload study against an ingested
// grid: a step-response transient ("transient") or a Monte Carlo
// perturbation ensemble ("mc"), both from internal/workload. A study is
// many solves behind one request, so it is admitted like a solve (gate
// slot, drain barrier) but refused earlier on the degradation ladder:
// at LevelHigh and above the server keeps its capacity for single
// solves, which shed load per-request rather than per-hundred-solves.
// Steps and samples are clamped server-side (Config.MaxStudySteps,
// Config.MaxStudySamples) so a single request can never schedule
// unbounded work.

// StudyRequest is the wire form of one study call. The right-hand side
// takes the same two shapes as a solve request (dense `b`, or sparse
// `nodes`/`values`).
type StudyRequest struct {
	Grid string `json:"grid"`
	// Kind selects the study: "transient" or "mc".
	Kind string `json:"kind"`

	B      []float64 `json:"b,omitempty"`
	Nodes  []int     `json:"nodes,omitempty"`
	Values []float64 `json:"values,omitempty"`

	// Transient knobs (defaults: 50 steps, dt 1e-11 s, cap 1e-15 F).
	Steps int     `json:"steps,omitempty"`
	Dt    float64 `json:"dt,omitempty"`
	Cap   float64 `json:"cap,omitempty"`

	// Monte Carlo knobs (defaults: 32 samples; sigmas 0 = channel off).
	Samples        int     `json:"samples,omitempty"`
	Seed           uint64  `json:"seed,omitempty"`
	ResistorSigma  float64 `json:"resistor_sigma,omitempty"`
	FailCandidates int     `json:"fail_candidates,omitempty"`
	FailProb       float64 `json:"fail_prob,omitempty"`
	LoadSigma      float64 `json:"load_sigma,omitempty"`
	Threshold      float64 `json:"threshold,omitempty"`

	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// DecodeStudyRequest parses and validates a study request from r,
// reading at most maxBytes. Step and sample counts are clamped to the
// server bounds rather than rejected: a client asking for more work
// than the server allows gets the bounded study, with the clamp visible
// in the response counts.
func DecodeStudyRequest(r io.Reader, maxBytes int64, maxSteps, maxSamples int) (*StudyRequest, error) {
	var req StudyRequest
	if err := decodeJSON(r, maxBytes, &req); err != nil {
		return nil, err
	}
	if req.Grid == "" {
		return nil, errors.New("serve: missing grid fingerprint")
	}
	if _, err := ParseFingerprint(req.Grid); err != nil {
		return nil, err
	}
	if req.Kind != "transient" && req.Kind != "mc" {
		return nil, fmt.Errorf("serve: unknown study kind %q (want transient or mc)", req.Kind)
	}
	if err := req.rhsRequest().checkRHS(); err != nil {
		return nil, err
	}
	for _, v := range []float64{req.Dt, req.Cap, req.ResistorSigma, req.FailProb, req.LoadSigma, req.Threshold} {
		if !isFinite(v) || v < 0 {
			return nil, errors.New("serve: study parameters must be finite and non-negative")
		}
	}
	if req.FailProb > 1 {
		return nil, fmt.Errorf("serve: fail_prob %g outside [0,1]", req.FailProb)
	}
	if req.Steps < 0 || req.Samples < 0 || req.FailCandidates < 0 {
		return nil, errors.New("serve: negative study count")
	}
	if req.TimeoutMillis < 0 {
		return nil, fmt.Errorf("serve: negative timeout_ms %d", req.TimeoutMillis)
	}
	// Apply the workload defaults here so the server bound clamps them
	// too (a server configured below the default still wins).
	if req.Steps == 0 {
		req.Steps = 50
	}
	if req.Steps > maxSteps {
		req.Steps = maxSteps
	}
	if req.Samples == 0 {
		req.Samples = 32
	}
	if req.Samples > maxSamples {
		req.Samples = maxSamples
	}
	return &req, nil
}

// rhsRequest is the study's right-hand side as a solve request holds
// it, so the two decoders check it and build it with the same code.
func (req *StudyRequest) rhsRequest() *SolveRequest {
	return &SolveRequest{B: req.B, Nodes: req.Nodes, Values: req.Values}
}

func (req *StudyRequest) target() (string, int64) { return req.Grid, req.TimeoutMillis }

func (req *StudyRequest) vector(n int) ([]float64, error) { return req.rhsRequest().RHS(n) }

// StudyResponse is the wire form of a completed study. Exactly one of
// the per-kind sections is populated.
type StudyResponse struct {
	Grid string `json:"grid"`
	Kind string `json:"kind"`

	Preparations    int `json:"preparations"`
	TotalIterations int `json:"total_iterations"`

	// Transient section.
	Steps    int     `json:"steps,omitempty"`
	Peak     float64 `json:"peak,omitempty"`
	PeakStep int     `json:"peak_step,omitempty"`
	WaveFP   string  `json:"wave_fp,omitempty"`

	// Monte Carlo section.
	Samples   int                 `json:"samples,omitempty"`
	Groups    int                 `json:"groups,omitempty"`
	ReuseHits int                 `json:"reuse_hits,omitempty"`
	Quantiles []workload.Quantile `json:"quantiles,omitempty"`
	StatsFP   string              `json:"stats_fp,omitempty"`

	SetupMicros int64 `json:"setup_us"`
	SolveMicros int64 `json:"solve_us"`
}

func (s *Server) handleStudy(w http.ResponseWriter, r *http.Request) {
	serveRHS(s, w, r, endpoint{name: "study", refuses: "studies", refuseFrom: LevelHigh, count: &s.met.studies},
		func(body io.Reader) (*StudyRequest, error) {
			return DecodeStudyRequest(body, s.cfg.MaxRequestBytes, s.cfg.MaxStudySteps, s.cfg.MaxStudySamples)
		}, s.runStudy)
}

// runStudy runs an admitted study. Studies run the base options with
// the ladder's retry downgrade: every preparation a study spends is a
// build that would otherwise retry expensively under pressure.
func (s *Server) runStudy(ctx context.Context, level Level, g grid, b []float64, req *StudyRequest) (any, error) {
	opt := s.cfg.Options
	opt.Retry = level.RetryFor(opt.Retry)

	resp := StudyResponse{Grid: req.Grid, Kind: req.Kind}
	switch req.Kind {
	case "transient":
		tr, err := workload.SystemTransient(ctx, g.sys, b, workload.StepStudySpec{
			Cap: req.Cap, TimeStep: req.Dt, Steps: req.Steps,
		}, opt)
		if err != nil {
			return nil, err
		}
		resp.Preparations = tr.Preparations
		resp.TotalIterations = tr.TotalIterations
		resp.Steps = tr.Steps
		resp.Peak = tr.Peak
		resp.PeakStep = tr.PeakStep
		resp.WaveFP = FormatFingerprint(tr.WaveFP)
		resp.SetupMicros = tr.SetupTime.Microseconds()
		resp.SolveMicros = tr.SolveTime.Microseconds()
	case "mc":
		mc, err := workload.MonteCarlo(ctx, g.sys, b, workload.MCSpec{
			Samples:        req.Samples,
			Seed:           req.Seed,
			ResistorSigma:  req.ResistorSigma,
			FailCandidates: req.FailCandidates,
			FailProb:       req.FailProb,
			LoadSigma:      req.LoadSigma,
			DropThreshold:  req.Threshold,
		}, opt)
		if err != nil {
			return nil, err
		}
		resp.Preparations = mc.Preparations
		resp.TotalIterations = mc.TotalIterations
		resp.Samples = mc.Samples
		resp.Groups = mc.Groups
		resp.ReuseHits = mc.ReuseHits
		resp.Peak = mc.Peak
		resp.Quantiles = mc.Quantiles
		resp.StatsFP = FormatFingerprint(mc.StatsFP)
		resp.SetupMicros = mc.SetupTime.Microseconds()
		resp.SolveMicros = mc.SolveTime.Microseconds()
	}
	return resp, nil
}
