package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"rsti/internal/core"
)

// Error kinds — the wire vocabulary of the /v1 envelope. Frontend kinds
// (parse, typecheck, compile) map 1:1 from the PR 2 typed error taxonomy
// (core.ErrParse / core.ErrTypeCheck); the rest classify protocol and
// admission failures.
const (
	KindBadRequest   = "bad_request"
	KindParse        = "parse"
	KindTypecheck    = "typecheck"
	KindCompile      = "compile"
	KindNotFound     = "not_found"
	KindUnauthorized = "unauthorized"
	KindForbidden    = "forbidden"
	KindRateLimited  = "rate_limited"
	KindQueueFull    = "queue_full"
	KindShutdown     = "shutting_down"
	KindInternal     = "internal"
)

// apiError is the uniform /v1 error envelope body: every error response
// from every endpoint is {"error": {"kind", "message", "trap"?}}.
type apiError struct {
	Kind    string    `json:"kind"`
	Message string    `json:"message"`
	Trap    *trapJSON `json:"trap,omitempty"`
}

type errorEnvelope struct {
	Error apiError `json:"error"`
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError renders a protocol failure in the /v1 error envelope.
func writeError(w http.ResponseWriter, status int, kind, format string, args ...any) {
	writeJSON(w, status, errorEnvelope{Error: apiError{Kind: kind, Message: fmt.Sprintf(format, args...)}})
}

// compileErrorKind classifies a frontend failure via the typed sentinels.
func compileErrorKind(err error) string {
	switch {
	case errors.Is(err, core.ErrParse):
		return KindParse
	case errors.Is(err, core.ErrTypeCheck):
		return KindTypecheck
	}
	return KindCompile
}

// writeCompileError maps the typed compile errors onto a structured 422.
func writeCompileError(w http.ResponseWriter, err error) {
	writeError(w, http.StatusUnprocessableEntity, compileErrorKind(err), "%s", err.Error())
}

// runCancelled reports whether a run's error means cancellation (client
// gone or deadline hit) rather than a program outcome.
func runCancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
