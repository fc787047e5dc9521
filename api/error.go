package api

import (
	"context"
	"errors"
	"fmt"
	"net/http"
)

// Code is a stable, machine-readable error category. Codes are the unit of
// error handling across the whole system: the Session attaches one to every
// failure, the HTTP layer maps each to exactly one status, and the client
// SDK reconstructs the same *Error on the far side, so
// errors.Is(err, api.ErrTimeout) means the same thing in-process and across
// the wire.
type Code string

const (
	// CodeBadRequest marks a malformed request envelope: unknown task
	// kind, missing required field, undecodable body.
	CodeBadRequest Code = "bad_request"
	// CodeBadQuery marks a query text that failed to parse.
	CodeBadQuery Code = "bad_query"
	// CodeBadTuple marks a malformed or unusable tuple argument (the
	// responsibility probe or a verify-contingency element).
	CodeBadTuple Code = "bad_tuple"
	// CodeUnknownDB marks a task naming a database that is not registered.
	CodeUnknownDB Code = "unknown_db"
	// CodeUnknownJob marks a job id that does not exist (never existed, or
	// already evicted).
	CodeUnknownJob Code = "unknown_job"
	// CodeOverload means admission control shed the request (or the job
	// queue is full); retry after backing off.
	CodeOverload Code = "overload"
	// CodeTimeout means the task hit its deadline (the task's timeout_ms,
	// the server's per-request budget, or the caller's context deadline).
	CodeTimeout Code = "timeout"
	// CodeCanceled means the caller went away mid-task (client disconnect,
	// context cancellation, job cancellation).
	CodeCanceled Code = "canceled"
	// CodeRestart means a server restart interrupted the work: an async
	// job that was running when the process died is stamped failed with
	// this code on recovery, and a recovering or draining replica
	// answers it as 503 — a retriable condition, unlike the other
	// failure codes.
	CodeRestart Code = "restart"
	// CodeInternal is an unexpected solver or server failure.
	CodeInternal Code = "internal"
)

// Error is the typed error of the v1 task API. It is both a Go error —
// usable with errors.Is (matching by Code) and errors.As — and the wire
// error body every non-2xx v1 response carries.
type Error struct {
	Code    Code   `json:"code"`
	Message string `json:"message"`
}

// Sentinel errors, one per Code, for errors.Is tests. Matching is by Code
// only, so a detailed Errorf-built error still Is() its sentinel.
var (
	ErrBadRequest = &Error{Code: CodeBadRequest, Message: "bad request"}
	ErrBadQuery   = &Error{Code: CodeBadQuery, Message: "malformed query"}
	ErrBadTuple   = &Error{Code: CodeBadTuple, Message: "malformed tuple"}
	ErrUnknownDB  = &Error{Code: CodeUnknownDB, Message: "unknown database"}
	ErrUnknownJob = &Error{Code: CodeUnknownJob, Message: "unknown job"}
	ErrOverload   = &Error{Code: CodeOverload, Message: "server at capacity"}
	ErrTimeout    = &Error{Code: CodeTimeout, Message: "deadline exceeded"}
	ErrCanceled   = &Error{Code: CodeCanceled, Message: "request canceled"}
	ErrRestart    = &Error{Code: CodeRestart, Message: "interrupted by server restart"}
	ErrInternal   = &Error{Code: CodeInternal, Message: "internal error"}
)

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Message == "" {
		return string(e.Code)
	}
	return string(e.Code) + ": " + e.Message
}

// Is matches any *Error with the same Code, so
// errors.Is(err, api.ErrTimeout) holds for every timeout regardless of its
// message.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	return ok && t.Code == e.Code
}

// Errorf builds an *Error with the given code and formatted message.
func Errorf(code Code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// StatusClientClosedRequest is the non-standard (nginx-originated) status
// v1 uses for CodeCanceled: the client went away, so no standard 4xx/5xx
// fits. It is widely understood by proxies and metrics pipelines.
const StatusClientClosedRequest = 499

// HTTPStatus returns the HTTP status the v1 surface uses for this error's
// code. The mapping is fixed: clients may dispatch on either the status or
// the body's code and reach the same branch.
func (e *Error) HTTPStatus() int {
	switch e.Code {
	case CodeBadRequest, CodeBadQuery, CodeBadTuple:
		return http.StatusBadRequest
	case CodeUnknownDB, CodeUnknownJob:
		return http.StatusNotFound
	case CodeOverload:
		return http.StatusTooManyRequests
	case CodeTimeout:
		return http.StatusGatewayTimeout
	case CodeCanceled:
		return StatusClientClosedRequest
	case CodeRestart:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// CodeForStatus is the client-side fallback mapping from an HTTP status to
// a Code, for responses whose body carries no code: a proxy's page, a
// truncated body, or the route table's plain-text 404 and 405.
func CodeForStatus(status int) Code {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusNotFound:
		return CodeUnknownDB
	case http.StatusTooManyRequests:
		return CodeOverload
	case http.StatusGatewayTimeout:
		return CodeTimeout
	case StatusClientClosedRequest:
		return CodeCanceled
	case http.StatusServiceUnavailable:
		return CodeRestart
	default:
		return CodeInternal
	}
}

// Wrap converts an arbitrary error into an *Error, preserving an existing
// *Error and classifying context failures: deadline expiry becomes
// ErrTimeout and cancellation ErrCanceled, so cooperative-cancellation
// aborts never surface as generic internal errors. Everything else becomes
// CodeInternal with the original message. Wrap(nil) is nil.
func Wrap(err error) *Error {
	if err == nil {
		return nil
	}
	var ae *Error
	if errors.As(err, &ae) {
		return ae
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return Errorf(CodeTimeout, "%v", err)
	case errors.Is(err, context.Canceled):
		return Errorf(CodeCanceled, "%v", err)
	default:
		return Errorf(CodeInternal, "%v", err)
	}
}
