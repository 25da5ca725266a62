// Wire protocol for pao_serve: newline-delimited JSON over a stream
// socket. Every request is one JSON object on one line with a string
// "cmd"; tenant-scoped commands carry a string "tenant". Every request
// gets exactly one response line, in request order per connection:
//
//   {"ok": true, "result": {...}}
//   {"ok": false, "code": "SRVnnn", "error": "<human-readable reason>"}
//
// Error responses produced by the dispatcher additionally carry a "req"
// field — the service-wide monotonic request id assigned at dispatch —
// so a client (or an operator grepping the slow-request log, which prints
// the same id) can correlate a failure with the server-side record.
//
// The SRVnnn codes are stable API (tests assert them; see DESIGN.md
// "Service architecture" for the command grammar):
//
//   SRV001  malformed JSON (the line did not parse as one JSON document)
//   SRV002  missing or wrongly-typed request field
//   SRV003  unknown command
//   SRV004  unknown tenant
//   SRV005  tenant already loaded
//   SRV006  busy: per-tenant in-flight budget exhausted (in-process
//           callers only — the socket server stalls the connection
//           instead of rejecting, see Server)
//   SRV007  load failed (unreadable or unparseable LEF/DEF)
//   SRV008  bad argument value (unknown instance/master, bad region, ...)
//   SRV009  internal error (anything unexpected; the tenant session is
//           unchanged unless the command's doc says otherwise)
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace pao::serve {

inline constexpr std::string_view kErrMalformed = "SRV001";
inline constexpr std::string_view kErrBadField = "SRV002";
inline constexpr std::string_view kErrUnknownCommand = "SRV003";
inline constexpr std::string_view kErrUnknownTenant = "SRV004";
inline constexpr std::string_view kErrTenantExists = "SRV005";
inline constexpr std::string_view kErrBusy = "SRV006";
inline constexpr std::string_view kErrLoadFailed = "SRV007";
inline constexpr std::string_view kErrBadArgument = "SRV008";
inline constexpr std::string_view kErrInternal = "SRV009";

/// Fatal serve-layer failures (socket setup, resource exhaustion) that a
/// front end maps to its exit-code contract. Per-request errors never use
/// this — they become {"ok": false} response lines instead.
class ServeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One request line, parsed once at the transport edge so both the
/// admission-control path and the dispatcher work from the same view.
struct Request {
  obs::Json doc;
  std::string cmd;     ///< empty when absent/mistyped (dispatch → SRV002)
  std::string tenant;  ///< empty for global commands
  bool malformed = false;  ///< line was not a single JSON object
  std::string parseError;
  std::string line;    ///< the raw line (kept for mutation history/replay)
};

Request parseRequest(std::string line);

/// True for commands the dispatcher must run alone: they create/destroy
/// tenants or read cross-tenant state. Per-tenant commands (move, query,
/// report, ...) may run concurrently with other tenants' requests.
bool isSerialCommand(std::string_view cmd);
bool isKnownCommand(std::string_view cmd);
/// True for a request that must form a dispatch batch of its own: a
/// malformed line, a tenant-less request or a serial command.
bool runsAlone(const Request& req);

/// Response lines (no trailing newline; the transport appends it).
std::string okLine(obs::Json result);
std::string errorLine(std::string_view code, const std::string& message);
/// Dispatcher flavor: appends the monotonic request id as "req".
std::string errorLine(std::string_view code, const std::string& message,
                      std::uint64_t requestId);

}  // namespace pao::serve
