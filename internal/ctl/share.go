package ctl

import (
	"net/http"

	"repro/internal/vet"
)

// This file serves the repository and trace verbs: commit, vet, push,
// pull, recreate, and trace check, download and push.

// CommitRequest is the body of POST /ctl/commit.
type CommitRequest struct {
	Name string `json:"name"`
	// Kind commits a type definition instead of a scene setup.
	Kind bool `json:"kind,omitempty"`
	// Force bypasses the vet pre-commit gate ("dbox commit -f").
	Force bool `json:"force,omitempty"`
}

// VetRequest is the body of POST /ctl/vet: analyze one committed setup
// (empty version = latest) or, with All, every committed setup.
type VetRequest struct {
	Name    string `json:"name,omitempty"`
	Version string `json:"version,omitempty"`
	All     bool   `json:"all,omitempty"`
}

// ShareRequest is the body of POST /ctl/push and /ctl/pull.
type ShareRequest struct {
	Name string `json:"name"`
}

// RecreateRequest is the body of POST /ctl/recreate.
type RecreateRequest struct {
	Name    string `json:"name"`
	Version string `json:"version,omitempty"`
}

// CheckTraceRequest is the body of POST /ctl/checktrace: evaluate the
// registered scene properties offline against a shared trace.
type CheckTraceRequest struct {
	Trace   string `json:"trace"`
	Version string `json:"version,omitempty"`
}

func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request) {
	var req CommitRequest
	if !decode(w, r, &req) {
		return
	}
	var version string
	var err error
	switch {
	case req.Kind:
		version, err = s.TB.CommitKind(req.Name)
	case req.Force:
		version, err = s.TB.CommitSceneForce(req.Name)
	default:
		version, err = s.TB.CommitScene(req.Name)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"version": version})
}

func (s *Server) handleVet(w http.ResponseWriter, r *http.Request) {
	var req VetRequest
	if !decode(w, r, &req) {
		return
	}
	results := map[string][]vet.Diagnostic{}
	if req.All {
		all, err := s.TB.VetAll()
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		results = all
	} else {
		diags, err := s.TB.VetSetup(req.Name, req.Version)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		results[req.Name] = diags
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": results})
}

func (s *Server) handlePush(w http.ResponseWriter, r *http.Request) {
	var req ShareRequest
	if !decode(w, r, &req) {
		return
	}
	if err := s.TB.Push(req.Name); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "pushed"})
}

func (s *Server) handlePull(w http.ResponseWriter, r *http.Request) {
	var req ShareRequest
	if !decode(w, r, &req) {
		return
	}
	if err := s.TB.Pull(req.Name); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "pulled"})
}

func (s *Server) handleRecreate(w http.ResponseWriter, r *http.Request) {
	var req RecreateRequest
	if !decode(w, r, &req) {
		return
	}
	if err := s.TB.Recreate(req.Name, req.Version); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "recreated"})
}

func (s *Server) handleCheckTrace(w http.ResponseWriter, r *http.Request) {
	var req CheckTraceRequest
	if !decode(w, r, &req) {
		return
	}
	recs, err := s.TB.PullTrace(req.Trace, req.Version)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	violations, err := s.TB.CheckTraceRecords(recs)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	out := make([]map[string]any, 0, len(violations))
	for _, v := range violations {
		out = append(out, map[string]any{
			"property": v.Property,
			"detail":   v.Detail,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"records":    len(recs),
		"violations": out,
	})
}

func (s *Server) handleTraceDownload(w http.ResponseWriter, r *http.Request) {
	data, err := s.TB.Log.ArchiveBytes()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/zip")
	w.Header().Set("Content-Disposition", `attachment; filename="trace.zip"`)
	w.Write(data)
}

func (s *Server) handleTracePush(w http.ResponseWriter, r *http.Request) {
	var req ShareRequest
	if !decode(w, r, &req) {
		return
	}
	version, err := s.TB.PushTrace(req.Name)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"version": version})
}
