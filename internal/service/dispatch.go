package service

import (
	"fmt"
	"net/http"

	"repro/internal/offload"
	"repro/internal/sim/systems"
)

// This file is the HTTP face of internal/offload: POST /v1/dispatch
// takes a batch of BLAS call shapes for one system and answers, per
// call, which device an auto-offload runtime should route it to. The
// server keeps one long-lived offload.Dispatcher per system, so its
// memo map persists across requests — repeated production traffic
// converges to pure cache hits, which is the point of the endpoint. A
// verdict depends only on its call, never on earlier requests.

// DispatchCallRequest is one call in a dispatch batch: the advise wire
// shape plus the USM residency flag.
type DispatchCallRequest struct {
	CallRequest
	// Resident marks the call's operands as already resident on the GPU
	// (first-touch migration paid by an earlier call). Only meaningful
	// for movement "usm".
	Resident bool `json:"resident,omitempty"`
}

// DispatchRequest is the body of POST /v1/dispatch: a batch of call
// shapes to route on one system.
type DispatchRequest struct {
	System string                `json:"system"`
	Calls  []DispatchCallRequest `json:"calls"`
}

// DecisionBody is one routing decision on the wire.
type DecisionBody struct {
	// Device is "cpu" or "gpu".
	Device     string  `json:"device"`
	CPUSeconds float64 `json:"cpu_seconds"`
	GPUSeconds float64 `json:"gpu_seconds"`
	Speedup    float64 `json:"speedup"`
	// Cached marks a decision replayed from the dispatcher's memo map (or
	// shared with a concurrent evaluation of the same shape).
	Cached bool `json:"cached,omitempty"`
	// Held marks a call the raw model comparison would offload but the
	// margin kept on the CPU.
	Held bool `json:"held,omitempty"`
}

// DispatchResponse is the data payload of a successful POST /v1/dispatch.
type DispatchResponse struct {
	System string `json:"system"`
	// Decisions is index-aligned with the request's calls.
	Decisions []DecisionBody `json:"decisions"`
	// Offloaded counts the batch's GPU verdicts.
	Offloaded int `json:"offloaded"`
	// CacheHits counts the batch's decisions answered from the
	// dispatcher's memo map.
	CacheHits int `json:"cache_hits"`
}

// dispatcher returns the long-lived dispatcher for one system, creating
// it on first use.
func (s *Server) dispatcher(sys systems.System) *offload.Dispatcher {
	s.dispatchMu.Lock()
	defer s.dispatchMu.Unlock()
	d, ok := s.dispatchers[sys.Name]
	if !ok {
		d = offload.New(offload.Options{System: sys, Evaluate: s.opts.DispatchEvaluate})
		s.dispatchers[sys.Name] = d
	}
	return d
}

// dispatchBodyLimit is the /v1/dispatch request cap: batches run to
// thousands of calls, so the default 1 MiB decode limit is too tight.
const dispatchBodyLimit = 8 << 20

func (s *Server) handleDispatch(w http.ResponseWriter, r *http.Request) {
	var req DispatchRequest
	if err := DecodeStrict(http.MaxBytesReader(nil, r.Body, dispatchBodyLimit), &req); err != nil {
		WriteError(w, http.StatusBadRequest, "", err)
		return
	}
	if req.System == "" {
		WriteError(w, http.StatusBadRequest, "", fmt.Errorf("system must be set"))
		return
	}
	sys, err := systems.ByName(req.System)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "", err)
		return
	}
	if len(req.Calls) == 0 {
		WriteError(w, http.StatusBadRequest, "", fmt.Errorf("calls must not be empty"))
		return
	}
	if len(req.Calls) > s.opts.MaxDispatchBatch {
		WriteError(w, http.StatusBadRequest, "",
			fmt.Errorf("batch of %d calls exceeds the service limit %d", len(req.Calls), s.opts.MaxDispatchBatch))
		return
	}

	// Map the whole batch before deciding any of it, so a bad call at
	// index 4000 cannot waste 3999 evaluations first.
	calls := make([]offload.Call, 0, len(req.Calls))
	for i, cr := range req.Calls {
		c, err := cr.toCall()
		if err != nil {
			WriteError(w, http.StatusBadRequest, "", fmt.Errorf("calls[%d]: %w", i, err))
			return
		}
		calls = append(calls, offload.Call{Call: c, Resident: cr.Resident})
	}

	d := s.dispatcher(sys)
	ctx := r.Context()
	resp := DispatchResponse{
		System:    sys.Name,
		Decisions: make([]DecisionBody, 0, len(calls)),
	}
	for _, c := range calls {
		dec, err := d.Decide(ctx, c)
		if err != nil {
			// Decide checks the context per call, so a client hanging up
			// mid-batch stops the loop here instead of burning the rest of
			// the batch; 499 is the same abandoned-request convention the
			// threshold path uses.
			if ctx.Err() != nil {
				s.metrics.DispatchAbandoned.Inc()
				w.WriteHeader(499)
				s.log.Info("dispatch request abandoned",
					"system", sys.Name, "decided", len(resp.Decisions), "batch", len(calls))
				return
			}
			// Calls were validated above, so this is a server-side failure.
			WriteError(w, http.StatusInternalServerError, "", err)
			return
		}
		body := DecisionBody{
			Device:     dec.Device.String(),
			CPUSeconds: dec.CPUSeconds,
			GPUSeconds: dec.GPUSeconds,
			Speedup:    dec.Speedup,
			Cached:     dec.Cached,
			Held:       dec.Held,
		}
		if dec.Device == offload.GPU {
			resp.Offloaded++
		}
		if dec.Cached {
			resp.CacheHits++
		}
		resp.Decisions = append(resp.Decisions, body)
	}
	s.metrics.DispatchBatches.Inc()
	s.metrics.DispatchDecisions.Add(int64(len(resp.Decisions)))
	s.metrics.DispatchCacheHits.Add(int64(resp.CacheHits))
	WriteEnvelope(w, http.StatusOK, SchemaDispatch, resp)
}
