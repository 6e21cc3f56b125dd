package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// DeadlineError is the cancellation cause installed on every
// per-request compute context. It matches
// errors.Is(err, context.DeadlineExceeded), so anything downstream that
// already classifies deadline errors keeps working, while the HTTP
// layer maps it to 504 with the budget that was exceeded.
type DeadlineError struct {
	Budget time.Duration
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("serve: request exceeded its %v deadline", e.Budget)
}

// Is keeps errors.Is(err, context.DeadlineExceeded) true.
func (e *DeadlineError) Is(target error) bool { return target == context.DeadlineExceeded }

// errDraining is the cause installed on the base context when a drain
// forces in-flight work to stop; requests cut off by it map to 503.
var errDraining = errors.New("serve: draining: server is shutting down")

// errSaturated reports an exhausted admission queue; mapped to 503.
var errSaturated = errors.New("serve: saturated: admission queue is full")

// apiError is the JSON error body every non-2xx API response carries.
type apiError struct {
	Error      string `json:"error"`
	Status     int    `json:"status"`
	RetryAfter int    `json:"retry_after_seconds,omitempty"`
}

// writeError emits the error contract: JSON body, status code, and —
// for 429/503 — a Retry-After header (whole seconds, rounded up, at
// least 1) telling well-behaved clients when to come back.
func writeError(w http.ResponseWriter, status int, retryAfter time.Duration, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	body := apiError{Error: msg, Status: status}
	if retryAfter > 0 {
		secs := int((retryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		body.RetryAfter = secs
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// statusFromErr maps an execution error onto the HTTP contract:
//
//	504 — the request's own deadline fired (typed *DeadlineError or a
//	      bare context.DeadlineExceeded)
//	503 — the server is draining or saturated (retryable elsewhere/later)
//	500 — anything else (a genuine backend failure)
func statusFromErr(err error) int {
	var de *DeadlineError
	switch {
	case errors.As(err, &de), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, errDraining), errors.Is(err, errSaturated), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}
