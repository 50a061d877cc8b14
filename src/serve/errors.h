// Typed exception taxonomy of the serving layer.
//
// The engine's failure-delivery spine is the per-future exception channel:
// whatever prevents a request from producing a prediction — overload
// shedding, a per-request deadline, engine shutdown, or a fault inside the
// batch — reaches the caller by rethrowing from future.get(). Bare
// std::runtime_error forced every caller into string matching; these types
// let a front-end branch on cause (shed -> retry elsewhere with backoff,
// deadline -> drop the stale frame, stopped -> reconnect) while staying
// catchable as std::runtime_error for callers that do not care.
//
// The taxonomy deliberately covers only failures the ENGINE originates.
// An exception thrown by the served Method's Predict (or tensorization,
// or allocation) is delivered through the same channel with its original
// type — the engine never wraps or replaces application errors.
//
// Library policy note (tensor/status.h): programming errors still hit
// ADAPTRAJ_CHECK and abort. ServeError covers *operational* conditions —
// outcomes a correctly written caller can provoke at runtime through load,
// timing, lifecycle, or the content of a request — which must never take
// down a server.

#ifndef ADAPTRAJ_SERVE_ERRORS_H_
#define ADAPTRAJ_SERVE_ERRORS_H_

#include <stdexcept>
#include <string>

namespace adaptraj {
namespace serve {

/// Base of every engine-originated request failure. Derives from
/// std::runtime_error so pre-taxonomy call sites keep working unchanged.
class ServeError : public std::runtime_error {
 public:
  explicit ServeError(const std::string& what) : std::runtime_error(what) {}
};

/// Admission control rejected the request: the queue already held
/// InferenceEngineOptions::max_queued_requests entries and the overflow
/// policy was kShed. The request was never enqueued; retry with backoff or
/// divert to another shard.
class OverloadedError : public ServeError {
 public:
  explicit OverloadedError(const std::string& what) : ServeError(what) {}
};

/// The request's deadline passed while it was still queued (it never began
/// executing); the dispatcher expired it before batch formation. Requests
/// that already entered a batch always run to completion.
class DeadlineExceededError : public ServeError {
 public:
  explicit DeadlineExceededError(const std::string& what) : ServeError(what) {}
};

/// The engine stopped (Shutdown() or destruction) before the request could
/// be served: a Submit after shutdown, a queued request failed at shutdown,
/// or a Drain/SwapWeights interrupted by shutdown.
class EngineStoppedError : public ServeError {
 public:
  explicit EngineStoppedError(const std::string& what) : ServeError(what) {}
};

/// The request itself is malformed — a scene whose focal track or a
/// neighbor track does not have the engine's window length, a NaN or ±Inf
/// in an observed focal point or a neighbor point, or a negative
/// SubmitOptions::timeout_ms. Rejected at Submit, before it is queued, so
/// it can never fail or delay a batch-mate; counted in
/// InferenceEngineStats::invalid_requests. Fix the request; do not retry it.
class InvalidRequestError : public ServeError {
 public:
  explicit InvalidRequestError(const std::string& what) : ServeError(what) {}
};

}  // namespace serve
}  // namespace adaptraj

#endif  // ADAPTRAJ_SERVE_ERRORS_H_
