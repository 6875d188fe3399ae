package main

import (
	"encoding/json"
	"errors"
	"net/http"

	"snd/internal/dist"
)

// Distributed-execution endpoints. When the server runs with -coordinator,
// these expose the internal/dist lease protocol to the sndworker fleet;
// without it every /v1/dist/* call answers 404 coordinator_disabled so a
// misconfigured worker fails with a typed, actionable error instead of a
// bare not-found.
//
// Status mapping for dist protocol errors (codes in DESIGN.md §9):
//
//	unknown_worker → 404 (re-register)
//	unknown_lease  → 409 (lease expired or reassigned; abandon the batch)
//	job_cancelled  → 409 (sweep revoked; abandon the batch)
func (s *Server) mountDist(handle func(pattern, route string, h http.HandlerFunc)) {
	post := func(path string, h http.HandlerFunc) { handle("POST "+path, path, h) }
	post(dist.PathRegister, distPost(s, func(req dist.RegisterRequest) (dist.RegisterResponse, error) {
		return s.coord.Register(req), nil
	}))
	post(dist.PathLease, distPost(s, func(req dist.LeaseRequest) (dist.LeaseResponse, error) {
		return s.coord.Lease(req.WorkerID)
	}))
	post(dist.PathRenew, distPost(s, func(req dist.RenewRequest) (dist.RenewResponse, error) {
		return s.coord.Renew(req.WorkerID, req.BatchID)
	}))
	post(dist.PathResults, distPost(s, func(req dist.ResultsRequest) (dist.ResultsResponse, error) {
		return s.coord.Report(req)
	}))
	handle("GET "+dist.PathStatus, dist.PathStatus, s.distStatus)
}

// distEnabled answers the coordinator_disabled envelope when the server
// was started without -coordinator.
func (s *Server) distEnabled(w http.ResponseWriter) bool {
	if s.coord == nil {
		writeError(w, http.StatusNotFound, dist.CodeCoordinatorDisabled, "",
			"this server does not host a coordinator (start sndserve with -coordinator)")
		return false
	}
	return true
}

// writeDistError maps a coordinator error onto the /v1 envelope.
func writeDistError(w http.ResponseWriter, err error) {
	var derr *dist.Error
	if errors.As(err, &derr) {
		status := http.StatusConflict
		if derr.Code == dist.CodeUnknownWorker {
			status = http.StatusNotFound
		}
		writeError(w, status, derr.Code, "", "%s", derr.Message)
		return
	}
	writeError(w, http.StatusInternalServerError, "internal", "", "%v", err)
}

// distPost serves one protocol POST: it decodes the Req body strictly (an
// unknown field is a 400 bad_body naming it, as on POST /v1/jobs), hands
// it to the coordinator call, and answers the Resp as JSON or the call's
// typed error as the /v1 envelope.
func distPost[Req, Resp any](s *Server, call func(Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.distEnabled(w) {
			return
		}
		var req Req
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, errBadBody, "", "bad request body: %v", err)
			return
		}
		resp, err := call(req)
		if err != nil {
			writeDistError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

func (s *Server) distStatus(w http.ResponseWriter, r *http.Request) {
	if !s.distEnabled(w) {
		return
	}
	writeJSON(w, http.StatusOK, s.coord.Status())
}
