package service

import (
	"crypto/subtle"
	"net/http"

	"rsti/internal/cluster"
)

// Peer endpoints: the daemon's server side of internal/cluster's router.
// Mounted only in cluster mode, guarded by the shared peer secret (not
// tenant auth — peers are infrastructure and must reach each other even
// when tenant keys gate the public surface).
//
// The artifact endpoint is deliberately non-forwarding: it answers from
// this node's own cache or compiler (compilecache.Artifact, which uses
// the no-fetch GetLocal path), so a request chain between peers with
// momentarily divergent rings terminates at one hop instead of looping.

// peerGuard enforces the shared-secret header when one is configured.
// Constant-time comparison: the secret is a bearer credential.
func (s *Server) peerGuard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.peerSecret != "" {
			got := r.Header.Get(cluster.PeerKeyHeader)
			if subtle.ConstantTimeCompare([]byte(got), []byte(s.peerSecret)) != 1 {
				writeError(w, http.StatusForbidden, KindForbidden, "bad peer key")
				return
			}
		}
		h(w, r)
	}
}

type peerArtifactRequest struct {
	Source string `json:"source"`
}

// handlePeerArtifact serves the encoded compile artifact for a source:
// from this node's cache when warm, compiling locally (through the same
// singleflight the public surface uses, so a cluster-wide burst of one
// source still runs exactly one compile) when cold. The response body is
// the raw artifact; the fetching peer checksum-verifies and fully
// decodes it before serving, so transport corruption degrades to a local
// compile on the fetcher, never to wrong answers.
func (s *Server) handlePeerArtifact(w http.ResponseWriter, r *http.Request) {
	var req peerArtifactRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Source == "" {
		writeError(w, http.StatusBadRequest, KindBadRequest, "missing source")
		return
	}
	raw, err := s.cache.Artifact(req.Source)
	if err != nil {
		writeCompileFailure(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(raw)
}

// handlePeerHealth is the heartbeat probe target: 200 once the mux is
// serving. Engine saturation is deliberately not a health failure — a
// busy peer still owns its keys; marking it down would stampede its
// share of the ring onto its neighbours.
func (s *Server) handlePeerHealth(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
}
