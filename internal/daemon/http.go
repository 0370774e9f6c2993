package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Handler returns the daemon's HTTP API:
//
//	POST /campaigns              submit a campaign (Submission JSON) -> Status
//	GET  /campaigns              list campaigns -> []Status
//	GET  /campaigns/{id}         one campaign -> Status
//	POST /campaigns/{id}/cancel  cancel a campaign -> Status
//	GET  /campaigns/{id}/events  live event stream (SSE)
//	GET  /metrics                Prometheus text exposition
//	GET  /healthz                liveness probe
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", s.handleSubmit)
	mux.HandleFunc("GET /campaigns", s.handleList)
	mux.HandleFunc("GET /campaigns/{id}", s.handleGet)
	mux.HandleFunc("POST /campaigns/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// maxSubmission bounds a submission body; campaign specs are small.
const maxSubmission = 1 << 20

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the response is already committed
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// decodeSubmission decodes a POST /campaigns body: one JSON object
// naming only Submission's fields, with a subject. The body comes from
// any client, so it is the daemon's one decoder of untrusted bytes on
// the network side (FuzzSubmission).
func decodeSubmission(body io.Reader) (Submission, error) {
	var sub Submission
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sub); err != nil {
		return Submission{}, fmt.Errorf("decoding submission: %w", err)
	}
	// Decode stops after the first value; anything but whitespace
	// after it is a second value or garbage, not part of the one
	// object the body must be.
	if _, err := dec.Token(); err != io.EOF {
		return Submission{}, errors.New("decoding submission: trailing data after the JSON object")
	}
	if sub.Subject == "" {
		return Submission{}, errors.New("submission needs a subject")
	}
	return sub, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	sub, err := decodeSubmission(http.MaxBytesReader(w, r.Body, maxSubmission))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st, err := s.Submit(sub)
	if err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrUnknownSubject), errors.Is(err, ErrBudgetExhausted):
			code = http.StatusUnprocessableEntity
		case errors.Is(err, ErrShimDenied):
			code = http.StatusForbidden
		case errors.Is(err, ErrShuttingDown):
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Campaigns())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Campaign(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no campaign %s", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.Cancel(id); err != nil {
		code := http.StatusConflict
		if errors.Is(err, ErrNoCampaign) {
			code = http.StatusNotFound
		}
		writeError(w, code, err)
		return
	}
	st, _ := s.Campaign(id)
	writeJSON(w, http.StatusAccepted, st)
}

// handleEvents streams a campaign's events as SSE: one `data:` line
// per WireEvent, flushed immediately. The stream ends when the
// campaign retires (terminal "retired" event, then EOF) or the client
// goes away.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ch, cancel, ok := s.subscribe(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no campaign %s", id))
		return
	}
	defer cancel()
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case b, live := <-ch:
			if !live {
				return // campaign retired (or daemon shutting down)
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", b); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}
