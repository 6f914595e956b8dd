package verifyd

import (
	"errors"
	"net/http"

	"pnp/internal/adl"
	"pnp/internal/api"
)

// Error codes of the v1 HTTP API. Every failure response across every
// route of the table in transport.go carries the same JSON envelope
// (api.ErrorBody):
//
//	{"error": {"code": "invalid_argument", "message": "...", "line": 2, "col": 5}}
//
// line/col appear only on ADL parse and composition errors.
const (
	CodeInvalidArgument = "invalid_argument"
	CodeNotFound        = "not_found"
	CodeTooLarge        = "too_large"
	CodeUnavailable     = "unavailable"
	CodeInternal        = "internal"
)

// StatusError is a failure that already knows its HTTP status and
// envelope: a lookup that found nothing (NotFound), an oversized body,
// or a fleet backend relaying a worker's answer verbatim — the
// coordinator is a proxy, not a translator.
type StatusError struct {
	Status int
	Info   api.ErrorInfo
}

func (e *StatusError) Error() string { return e.Info.Message }

// NotFound is the error of a lookup that found nothing: an enveloped 404.
func NotFound(msg string) error {
	return &StatusError{http.StatusNotFound, api.ErrorInfo{Code: CodeNotFound, Message: msg}}
}

// WriteError writes the uniform error envelope. It is exported so
// per-backend extra routes fail with the same shape as the shared
// table.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	writeErr(w, &StatusError{status, api.ErrorInfo{Code: code, Message: msg}})
}

// writeErr writes a backend's error as the uniform envelope: a
// StatusError as it stands, ADL errors as 400 with their source
// position, ErrDraining as 503/unavailable, anything else as a 400 —
// the remaining failures of a submission are all judgements of its
// content (unknown preset, unknown block kind, unresolvable component).
// A 503 carries Retry-After: 1 so clients (and the coordinator's
// APIError.Temporary) can tell "busy or draining, come back" apart from
// a dead transport.
func writeErr(w http.ResponseWriter, err error) {
	var se *StatusError
	var ae *adl.Error
	switch {
	case errors.As(err, &se):
	case errors.As(err, &ae):
		se = &StatusError{http.StatusBadRequest, api.ErrorInfo{Code: CodeInvalidArgument, Message: ae.Error(), Line: ae.Line, Col: ae.Col}}
	case errors.Is(err, ErrDraining):
		se = &StatusError{http.StatusServiceUnavailable, api.ErrorInfo{Code: CodeUnavailable, Message: err.Error()}}
	default:
		se = &StatusError{http.StatusBadRequest, api.ErrorInfo{Code: CodeInvalidArgument, Message: err.Error()}}
	}
	if se.Status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, se.Status, api.ErrorBody{Error: se.Info})
}
