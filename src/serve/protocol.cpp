#include "serve/protocol.hpp"

#include <utility>

namespace pao::serve {

Request parseRequest(std::string line) {
  Request req;
  req.line = std::move(line);
  std::string error;
  const auto doc = obs::Json::parse(req.line, &error);
  if (!doc || !doc->isObject()) {
    req.malformed = true;
    req.parseError = doc ? "request is not a JSON object" : error;
    return req;
  }
  req.doc = *doc;
  const obs::Json* cmd = req.doc.find("cmd");
  if (cmd != nullptr && cmd->isString()) req.cmd = cmd->asString();
  const obs::Json* tenant = req.doc.find("tenant");
  if (tenant != nullptr && tenant->isString()) {
    req.tenant = tenant->asString();
  }
  return req;
}

bool isSerialCommand(std::string_view cmd) {
  return cmd == "ping" || cmd == "load" || cmd == "unload" ||
         cmd == "metrics" || cmd == "profile" || cmd == "shutdown";
}

bool runsAlone(const Request& req) {
  return req.malformed || req.tenant.empty() || isSerialCommand(req.cmd);
}

bool isKnownCommand(std::string_view cmd) {
  return isSerialCommand(cmd) || cmd == "move" || cmd == "orient" ||
         cmd == "add" || cmd == "remove" || cmd == "query" ||
         cmd == "report" || cmd == "save" || cmd == "history";
}

std::string okLine(obs::Json result) {
  obs::Json resp = obs::Json::object();
  resp.set("ok", obs::Json(true));
  resp.set("result", std::move(result));
  return resp.dump();
}

std::string errorLine(std::string_view code, const std::string& message) {
  obs::Json resp = obs::Json::object();
  resp.set("ok", obs::Json(false));
  resp.set("code", obs::Json(code));
  resp.set("error", obs::Json(message));
  return resp.dump();
}

std::string errorLine(std::string_view code, const std::string& message,
                      std::uint64_t requestId) {
  obs::Json resp = obs::Json::object();
  resp.set("ok", obs::Json(false));
  resp.set("code", obs::Json(code));
  resp.set("error", obs::Json(message));
  resp.set("req", obs::Json(requestId));
  return resp.dump();
}

}  // namespace pao::serve
