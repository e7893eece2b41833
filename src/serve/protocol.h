// Wire protocol for the inference server: newline-delimited JSON, one
// request object in, one response object out, over any byte stream (TCP
// in production, in-process strings in tests and the bench harness).
//
// Requests:
//   {"id": 7, "type": "embed",     "features": [f0, f1, ...]}
//   {"id": 8, "type": "predict",   "features": [...]}
//   {"id": 9, "type": "neighbors", "features": [...], "k": 5}
//
// Admin requests (no features; answered by the server core itself, never
// routed through the batcher):
//   {"id": 1, "type": "healthz"}     — liveness, answers even while draining
//   {"id": 2, "type": "statusz"}     — uptime, bundle dims, configuration
//   {"id": 3, "type": "metricsz"}    — metric snapshot: cumulative and
//                                      sliding-window views, plus
//                                      latency exemplars
//   {"id": 4, "type": "profilez", "action": "start", "hz": 99}
//   {"id": 5, "type": "profilez", "action": "stop"}
//   {"id": 6, "type": "profilez", "action": "fetch", "format": "folded"}
//                                    — in-process CPU profiler control:
//                                      "hz" only with start (optional),
//                                      "format" only with fetch
//                                      ("folded" | "json", default folded)
//   {"id": 7, "type": "reloadz", "action": "reload", "path": "m.rll"}
//   {"id": 8, "type": "reloadz", "action": "status"}
//                                    — zero-downtime model swap: "reload"
//                                      loads the bundle at "path" (omitted:
//                                      the currently served path) as the
//                                      next generation; "status" reports
//                                      generation / reload counters /
//                                      last_error. "path" is only valid
//                                      with "reload".
// Admin responses carry the JSON document in a "payload" member.
//
// Responses (always one line, always carry "ok"):
//   {"id": 7, "type": "embed",   "ok": true, "embedding": [...]}
//   {"id": 8, "type": "predict", "ok": true, "score": 0.93, "label": 1}
//   {"id": 9, "type": "neighbors", "ok": true,
//    "neighbors": [{"index": 3, "label": 1, "similarity": 0.98}, ...]}
//   {"id": 7, "ok": false, "error": "bad_request", "message": "..."}
//
// "id" is optional and echoed verbatim (number or string); it lets clients
// pipeline requests on one connection. Malformed input yields a structured
// error response, never a disconnect. Doubles go out as the 17
// significant digits %.17g prints, written by std::to_chars
// (obs::AppendJsonNumber), and come in through std::from_chars
// (serve/json.h), so embeddings round-trip bit-exactly through the
// protocol. An incoming number that underflows reads as a zero of its
// sign, as strtod reads it; one past double's range is a bad_request.

#ifndef RLL_SERVE_PROTOCOL_H_
#define RLL_SERVE_PROTOCOL_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace rll::serve {

enum class RequestType {
  kEmbed,
  kPredict,
  kNeighbors,
  kHealthz,
  kStatusz,
  kMetricsz,
  kProfilez,
  kReloadz,
};

const char* RequestTypeName(RequestType type);

/// True for the introspection/control commands (healthz/statusz/metricsz/
/// profilez/reloadz), which carry no features and bypass the model
/// entirely.
bool IsAdminRequest(RequestType type);

/// profilez sub-commands.
enum class ProfileAction {
  kStart,  // Arm the sampling profiler (optional "hz").
  kStop,   // Disarm; samples survive for a later fetch.
  kFetch,  // Export samples ("format": "folded" | "json").
};

/// Fetch export formats: collapsed stacks for flamegraph.pl, or the
/// aggregated JSON report.
enum class ProfileFormat {
  kFolded,
  kJson,
};

/// reloadz sub-commands.
enum class ReloadAction {
  kReload,  // Swap in a new bundle generation (optional "path").
  kStatus,  // Report generation, counters, and the last reload error.
};

/// Machine-readable error classes, mirrored into the "error" field and the
/// serve_requests_total{status=...} metric label.
enum class ServeError {
  kBadRequest,   // Unparseable or semantically invalid request.
  kUnsupported,  // Valid request the server is not configured for.
  kOverloaded,   // Rejected by admission control; retry later.
  kShutdown,     // Server is draining; connection should close.
  kInternal,     // Bug or unexpected state.
};

const char* ServeErrorName(ServeError error);

struct Request {
  RequestType type = RequestType::kEmbed;
  /// The request's "id" member re-serialized as JSON (empty = absent).
  std::string id_json;
  std::vector<double> features;
  /// neighbors only; 0 means "use the server default".
  size_t k = 0;
  /// profilez only.
  ProfileAction profile_action = ProfileAction::kFetch;
  /// profilez start only; 0 means "use the profiler default".
  int profile_hz = 0;
  ProfileFormat profile_format = ProfileFormat::kFolded;
  /// reloadz only.
  ReloadAction reload_action = ReloadAction::kStatus;
  /// reloadz action=reload only; empty means "reload the served path".
  std::string reload_path;
};

struct NeighborHit {
  size_t index = 0;       // Row in the served corpus.
  int label = 0;          // Expert label of that corpus row.
  double similarity = 0;  // Cosine in [-1, 1].
};

struct Response {
  std::string id_json;  // Echo of the request id ("" = absent).
  bool ok = false;
  bool has_type = false;  // False for errors before the type was known.
  RequestType type = RequestType::kEmbed;
  std::vector<double> embedding;         // embed
  double score = 0.0;                    // predict
  int label = 0;                         // predict
  std::vector<NeighborHit> neighbors;    // neighbors
  /// Admin responses: a complete JSON document spliced verbatim into the
  /// "payload" member (empty renders as {}).
  std::string payload_json;
  /// Nonzero when the request was trace-sampled; echoed as "trace_id" so
  /// clients can correlate responses with server-side trace spans.
  uint64_t trace_id = 0;
  ServeError error = ServeError::kInternal;  // when !ok
  std::string message;                       // when !ok
};

/// Parses one request line straight off the JSON tokenizer: no tree, and
/// "features" lands in Request::features as it is read. The whole line's
/// syntax is checked before any member is judged; a duplicate key's last
/// value wins. On failure returns a non-OK status and — when the line was
/// at least valid JSON with an "id" member — leaves the serialized id in
/// *id_json so the error response can still echo it.
Result<Request> ParseRequest(std::string_view line, std::string* id_json);

/// Appends the response's one-line JSON serialization (no trailing
/// newline) to *out.
void AppendResponse(const Response& response, std::string* out);

/// AppendResponse into a fresh string.
std::string SerializeResponse(const Response& response);

Response MakeErrorResponse(const std::string& id_json, ServeError error,
                           std::string message);

}  // namespace rll::serve

#endif  // RLL_SERVE_PROTOCOL_H_
