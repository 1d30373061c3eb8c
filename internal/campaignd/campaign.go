package campaignd

// The campaign service plane: what turns a per-campaign coordinator
// into a persistent multi-campaign server.
//
//	POST /v1/campaign              enqueue a campaign (CampaignSpec ->
//	                               EnqueueReply); accepted while serving
//	GET  /v1/campaign/{id}         per-campaign progress (CampaignStatus)
//	GET  /v1/campaign/{id}/csv     the campaign's merged CSV — 409 until
//	                               every point is done
//	POST /v1/campaign/{id}/arrive  release held rows of an open-loop
//	                               campaign (arriveRequest)
//
// A spec names only design-space coordinates — benchmark plus the
// shared-I-cache axes of internal/sweep — never simulation options:
// instruction budget, seed and worker count are the server's, exactly
// as they are for workers, so every submitter computes the same store
// keys and overlapping campaigns deduplicate instead of diverging.
// The server expands each spec through sweep.Expand (one private
// baseline per benchmark, then the swept rows in submitted order) —
// the builder sweep.Space.Build runs on — which is what makes
// GET /v1/campaign/{id}/csv byte-identical to the single-process
// `cmd/sweep` run over the same space.
//
// Open campaigns (Open: true) park their swept rows in the dispatch
// queue's held state; `sweep -replay` then releases them at
// trace-dictated times via /arrive, and the gap between the trace's
// due time and the submission's landing is booked into the
// campaignd_arrival_lag_seconds histogram — the saturation signal of
// the open-loop driver.

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"sharedicache/internal/experiments"
	"sharedicache/internal/sweep"
	"sharedicache/internal/tracing"
)

// PointSpec is one submitted campaign row: a benchmark and the
// shared-I-cache axes, with an optional per-row backend override.
type PointSpec struct {
	Bench            string
	CPC, KB, LB, Bus int
	// Backend overrides the campaign backend for this row ("" keeps it).
	Backend string `json:",omitempty"`
}

// CampaignSpec is the POST /v1/campaign body.
type CampaignSpec struct {
	// Name labels the campaign in status surfaces (optional).
	Name string `json:",omitempty"`
	// Backend stamps every point (baselines included) with a
	// simulation-backend override, exactly like `sweep -backend`; its
	// presence also selects the CSV backend column, so the merged CSV
	// matches the equivalent single-process run.
	Backend string `json:",omitempty"`
	// Rows are the swept design points in CSV emission order.
	Rows []PointSpec
	// Open parks every swept row in the held state until a
	// /arrive call releases it (baselines are leasable immediately, so
	// normalisation denominators are ready before the first row lands).
	Open bool `json:",omitempty"`
}

// EnqueueReply is the POST /v1/campaign response.
type EnqueueReply struct {
	ID int
	// Points is the expanded plan size: len(Rows) plus one private
	// baseline per distinct benchmark.
	Points int
}

// CampaignStatus is the GET /v1/campaign/{id} body.
type CampaignStatus struct {
	ID   int
	Name string
	// Points counts plan points (rows + baselines); Done those durably
	// in the store; Held declared-but-unarrived open-loop points.
	Points, Done, Held int
	// Rows is the swept row count (the merged CSV's data rows).
	Rows     int
	Complete bool
}

// arriveRequest is the POST /v1/campaign/{id}/arrive body: Rows are
// campaign-local row indexes (position in CampaignSpec.Rows), and
// OffsetMillis is the trace offset the submission was due at, which
// the arrival-lag histogram measures the landing against.
type arriveRequest struct {
	Rows         []int
	OffsetMillis int64
}

// buildCampaign expands a spec into its plan through sweep.Expand —
// per benchmark one private baseline at first appearance, then every
// swept row in submitted order — so the plan is the one a local sweep
// of the same space declares. Rows a local sweep would skip are errors.
func (s *Server) buildCampaign(spec CampaignSpec) ([]experiments.Point, []sweep.Row, error) {
	rows := make([]sweep.Row, len(spec.Rows))
	for k, r := range spec.Rows {
		rows[k] = sweep.Row{Bench: r.Bench, CPC: r.CPC, KB: r.KB, LB: r.LB, Bus: r.Bus, Backend: r.Backend}
	}
	plan, rows, err := sweep.Expand(s.runner, spec.Backend, rows)
	if err != nil {
		return nil, nil, err
	}
	return plan.Points(), rows, nil
}

// handleEnqueueCampaign admits a campaign while serving: expand, check
// every named backend is registered in this process (the same
// key-divergence guard New applies to the initial plan), append to the
// dispatch queue, and sweep the warm store so already-published points
// complete without dispatch.
func (s *Server) handleEnqueueCampaign(w http.ResponseWriter, r *http.Request) {
	var spec CampaignSpec
	if !readJSON(w, r, &spec) {
		return
	}
	if len(spec.Rows) == 0 {
		http.Error(w, "campaign spec has no rows", http.StatusBadRequest)
		return
	}
	points, rows, err := s.buildCampaign(spec)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad campaign spec: %v", err), http.StatusBadRequest)
		return
	}
	hashes, backendOf, err := s.planKeys(points)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	held := make([]bool, len(points))
	for _, m := range rows {
		held[m.PointIdx] = spec.Open
	}
	c := s.d.enqueue(&spec, rows, points, hashes, backendOf, held)
	if s.tracer != nil {
		s.tracer.Record("campaign.enqueue", tracing.SpanContext{}, c.accepted, s.now(),
			tracing.AInt("campaign", c.id),
			tracing.A("name", spec.Name),
			tracing.AInt("points", len(points)))
	}
	s.resume(hashes)
	writeJSON(w, EnqueueReply{ID: c.id, Points: len(points)})
}

// campaignByID resolves the {id} path value to an enqueued campaign.
func (s *Server) campaignByID(w http.ResponseWriter, r *http.Request) (*campaign, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		http.Error(w, "malformed campaign id", http.StatusBadRequest)
		return nil, false
	}
	c, ok := s.d.campaign(id)
	if !ok {
		http.NotFound(w, r)
	}
	return c, ok
}

func (s *Server) handleCampaignStatus(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignByID(w, r)
	if !ok {
		return
	}
	st := CampaignStatus{ID: c.id, Name: "initial"}
	if c.spec != nil {
		st.Name, st.Rows = c.spec.Name, len(c.spec.Rows)
	}
	p := s.d.campaignProgress(c.id)
	st.Points, st.Done, st.Held = p.Points, p.Done, p.Held
	st.Complete = p.Points > 0 && p.Done == p.Points
	writeJSON(w, st)
}

// handleCampaignCSV renders a completed campaign's merged CSV from the
// store — the coordinator never simulates — with the backend column
// exactly when the spec named a backend, mirroring `sweep -backend`.
// A complete campaign has retired, so its plan is re-expanded from the
// spec, and its results merge through the same plan-order loop as
// Server.Stream and the same emitter as a local sweep.
func (s *Server) handleCampaignCSV(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignByID(w, r)
	if !ok {
		return
	}
	if c.spec == nil {
		http.Error(w, "campaign carries no row metadata (initial driver campaign; merge via its driver)",
			http.StatusNotFound)
		return
	}
	if p := s.d.campaignProgress(c.id); p.Done != p.Points {
		http.Error(w, fmt.Sprintf("campaign incomplete: %d/%d points done", p.Done, p.Points),
			http.StatusConflict)
		return
	}
	points, rows, err := s.buildCampaign(*c.spec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// Render to memory first, so a result lost from the store is a 500,
	// never a truncated 200.
	var buf bytes.Buffer
	out := sweep.NewCSV(&buf, s.runner.Options().Workers)
	if c.spec.Backend != "" {
		out.IncludeBackendColumn()
	}
	results := s.stream(r.Context(), c.base, points)
	defer func() {
		for range results { // let the stream finish if the emitter stopped early
		}
	}()
	if err = out.Header(); err == nil {
		err = out.EmitStream(results, rows, len(points))
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	w.Write(buf.Bytes())
}

// handleArrive releases held rows of an open-loop campaign and books
// each submission's lag behind its trace-dictated due time. The lag is
// measured on the server's clock against the campaign's accept time,
// so replay drivers need no clock agreement with the coordinator;
// sub-zero lags (a driver running ahead) clamp to zero.
func (s *Server) handleArrive(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignByID(w, r)
	if !ok {
		return
	}
	var req arriveRequest
	if !readJSON(w, r, &req) {
		return
	}
	indexes, err := s.d.rowIndexes(c, req.Rows)
	if err == nil {
		err = s.d.markArrived(indexes)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	lag := s.now().Sub(c.accepted) - time.Duration(req.OffsetMillis)*time.Millisecond
	if lag < 0 {
		lag = 0
	}
	s.arrivalLag.Observe(lag.Seconds())
	w.WriteHeader(http.StatusNoContent)
}
