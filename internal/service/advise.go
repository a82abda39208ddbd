package service

import (
	"fmt"
	"net/http"

	benchdata "repro/bench_data"
	"repro/internal/advisor"
	"repro/internal/core"
	"repro/internal/sim/systems"
	"repro/internal/sim/xfer"
)

// CallRequest is the wire form of one BLAS call group. The spellings
// match the advisor's CSV trace columns; both are mapped onto the typed
// advisor.Call model at this parse boundary.
type CallRequest struct {
	Kernel    string `json:"kernel"`
	M         int    `json:"m"`
	N         int    `json:"n"`
	K         int    `json:"k,omitempty"`
	Precision string `json:"precision"`
	Count     int    `json:"count"`
	Movement  string `json:"movement"`
}

// toCall maps the wire form onto the typed model, validating as it goes.
func (cr CallRequest) toCall() (advisor.Call, error) {
	var c advisor.Call
	var err error
	if c.Kernel, err = core.ParseKernelKind(cr.Kernel); err != nil {
		return c, err
	}
	if c.Precision, err = core.ParsePrecision(cr.Precision); err != nil {
		return c, err
	}
	if c.Strategy, err = xfer.ParseStrategy(cr.Movement); err != nil {
		return c, err
	}
	c.M, c.N, c.K, c.Count = cr.M, cr.N, cr.K, cr.Count
	return c, c.Validate()
}

// AdviseRequest is the body of POST /v1/advise: a batch of call groups
// evaluated against one or more systems (all three when omitted). Model
// selects the timing model — "roofline" (default when omitted) or
// "blackbox", the committed measured-efficiency tables.
type AdviseRequest struct {
	Systems []string      `json:"systems,omitempty"`
	Calls   []CallRequest `json:"calls"`
	Model   string        `json:"model,omitempty"` // default "roofline"
}

// VerdictBody is one advisor verdict on the wire.
type VerdictBody struct {
	Call       CallRequest `json:"call"`
	System     string      `json:"system"`
	CPUSeconds float64     `json:"cpu_seconds"`
	GPUSeconds float64     `json:"gpu_seconds"`
	Offload    bool        `json:"offload"`
	Speedup    float64     `json:"speedup"`
}

// SummaryBody is one per-system trace summary on the wire.
type SummaryBody struct {
	System         string  `json:"system"`
	AllCPUSeconds  float64 `json:"all_cpu_seconds"`
	AllGPUSeconds  float64 `json:"all_gpu_seconds"`
	MixedSeconds   float64 `json:"mixed_seconds"`
	OffloadedCalls int     `json:"offloaded_calls"`
}

// AdviseResponse is the body of a successful POST /v1/advise. Model
// names the timing model when it is not the default: "blackbox" for
// table-driven verdicts, omitted entirely for roofline so existing
// clients see byte-identical output.
type AdviseResponse struct {
	Verdicts  []VerdictBody `json:"verdicts"`
	Summaries []SummaryBody `json:"summaries"`
	Model     string        `json:"model,omitempty"`
}

// handleAdvise serves POST /v1/advise with the unified envelope.
func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	resp, status, err := s.advise(r)
	if err != nil {
		WriteError(w, status, "", err)
		return
	}
	WriteEnvelope(w, status, SchemaAdvise, resp)
}

// advise decodes, validates and evaluates one advise request, returning
// the HTTP status to answer with alongside any error.
func (s *Server) advise(r *http.Request) (AdviseResponse, int, error) {
	var req AdviseRequest
	if err := decodeJSON(r, &req); err != nil {
		return AdviseResponse{}, http.StatusBadRequest, err
	}
	if len(req.Calls) == 0 {
		return AdviseResponse{}, http.StatusBadRequest, fmt.Errorf("calls must not be empty")
	}
	syss, err := resolveSystems(req.Systems)
	if err != nil {
		return AdviseResponse{}, http.StatusBadRequest, err
	}
	model, err := core.ParseModelKind(req.Model)
	if err != nil {
		return AdviseResponse{}, http.StatusBadRequest, err
	}
	if model == core.ModelBlackbox {
		set, err := benchdata.Default()
		if err != nil {
			// The embedded tables failed to parse: a build defect, not a
			// client error.
			return AdviseResponse{}, http.StatusInternalServerError, err
		}
		for i := range syss {
			syss[i] = syss[i].WithEffTables(set)
		}
	}
	calls := make([]advisor.Call, 0, len(req.Calls))
	wires := make([]CallRequest, 0, len(req.Calls))
	for i, cr := range req.Calls {
		c, err := cr.toCall()
		if err != nil {
			return AdviseResponse{}, http.StatusBadRequest, fmt.Errorf("calls[%d]: %w", i, err)
		}
		calls = append(calls, c)
		wires = append(wires, cr)
	}
	verdicts, err := advisor.AdviseAll(syss, calls)
	if err != nil {
		// Calls were validated above, so this is a server-side failure.
		return AdviseResponse{}, http.StatusInternalServerError, err
	}
	resp := AdviseResponse{Verdicts: make([]VerdictBody, 0, len(verdicts))}
	if model == core.ModelBlackbox {
		resp.Model = model.String()
	}
	// AdviseAll preserves call-major order: len(syss) verdicts per call.
	for i, v := range verdicts {
		resp.Verdicts = append(resp.Verdicts, VerdictBody{
			Call:       wires[i/len(syss)],
			System:     v.System,
			CPUSeconds: v.CPUSeconds,
			GPUSeconds: v.GPUSeconds,
			Offload:    v.Offload,
			Speedup:    v.Speedup,
		})
	}
	for _, sum := range advisor.Summarize(verdicts) {
		resp.Summaries = append(resp.Summaries, SummaryBody{
			System:         sum.System,
			AllCPUSeconds:  sum.AllCPU,
			AllGPUSeconds:  sum.AllGPU,
			MixedSeconds:   sum.Mixed,
			OffloadedCalls: sum.OffloadedCalls,
		})
	}
	return resp, http.StatusOK, nil
}

// resolveSystems maps system tokens to presets; empty means all three.
func resolveSystems(names []string) ([]systems.System, error) {
	if len(names) == 0 {
		return systems.All(), nil
	}
	out := make([]systems.System, 0, len(names))
	for _, n := range names {
		sys, err := systems.ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, sys)
	}
	return out, nil
}
