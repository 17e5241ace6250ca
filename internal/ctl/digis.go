package ctl

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// This file serves the digi verbs of Table 1: list, stop, check,
// watch, attach and edit.

// NameRequest is the body of verbs addressing one digi.
type NameRequest struct {
	Name string `json:"name"`
}

// AttachRequest is the body of POST /ctl/attach.
type AttachRequest struct {
	Child  string `json:"child"`
	Parent string `json:"parent"`
	Detach bool   `json:"detach,omitempty"`
}

// EditRequest is the body of POST /ctl/edit.
type EditRequest struct {
	Name  string         `json:"name"`
	Patch map[string]any `json:"patch"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"models": s.TB.Names()})
}

func (s *Server) handleStop(w http.ResponseWriter, r *http.Request) {
	var req NameRequest
	if !decode(w, r, &req) {
		return
	}
	if err := s.TB.StopDigi(req.Name); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "stopped", "name": req.Name})
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	doc, err := s.TB.Check(r.PathValue("name"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any(doc))
}

// handleWatch streams model updates as JSONL until the client goes
// away or max_updates is reached.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, err := s.TB.Check(name); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	maxUpdates := 0
	if v, err := strconv.Atoi(r.URL.Query().Get("max")); err == nil && v > 0 {
		maxUpdates = v
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	watcher := s.TB.Watch(name)
	defer watcher.Close()
	enc := json.NewEncoder(w)
	sent := 0
	for {
		select {
		case u, ok := <-watcher.C:
			if !ok {
				return
			}
			out := map[string]any{"gen": u.Gen, "deleted": u.Deleted, "doc": map[string]any(u.Doc)}
			if err := enc.Encode(out); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			sent++
			if maxUpdates > 0 && sent >= maxUpdates {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleAttach(w http.ResponseWriter, r *http.Request) {
	var req AttachRequest
	if !decode(w, r, &req) {
		return
	}
	var err error
	if req.Detach {
		err = s.TB.Detach(req.Child, req.Parent)
	} else {
		err = s.TB.Attach(req.Child, req.Parent)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleEdit(w http.ResponseWriter, r *http.Request) {
	var req EditRequest
	if !decode(w, r, &req) {
		return
	}
	if err := s.TB.Edit(req.Name, req.Patch); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
