// Tests for the pao_serve service layer (src/serve/): protocol
// parse/dispatch with stable SRVnnn codes, admission control, service-level
// equivalence between a mutated tenant's report and a fresh batch analysis
// of the saved design, and a multi-threaded soak across two tenants whose
// final state must equal a serial replay of each tenant's request history.
//
// The soak runs real loopback TCP sockets through the epoll Server; client
// threads come from util::parallelFor (the server occupies index 0, so the
// calling thread runs the event loop while the workers play clients).
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "benchgen/testcase.hpp"
#include "lefdef/def_writer.hpp"
#include "lefdef/lef_parser.hpp"
#include "lefdef/lef_writer.hpp"
#include "lefdef/stream.hpp"
#include "obs/enabled.hpp"
#include "obs/report.hpp"
#if PAO_OBS_ENABLED
#include "obs/profile.hpp"
#endif
#include "pao/report_json.hpp"
#include "pao/session.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/jobs.hpp"

namespace {

using pao::obs::Json;
using pao::serve::parseRequest;
using pao::serve::Request;
using pao::serve::ServerConfig;
using pao::serve::Service;
using pao::serve::ServiceConfig;

// --- fixtures -------------------------------------------------------------

struct TestFiles {
  std::string lef;
  std::string def;
};

/// Writes a small generated testcase to disk once per process; `load`
/// needs real files. ~50 instances keeps every test sub-second. The paths
/// carry the pid: ctest runs each test as its own process, and parallel
/// ctest invocations would otherwise truncate-and-rewrite the very files a
/// sibling process is mid-parse on.
const TestFiles& testFiles() {
  static const TestFiles files = [] {
    const auto specs = pao::benchgen::ispd18Suite();
    pao::benchgen::Testcase tc = pao::benchgen::generate(specs[0], 0.005);
    const std::string tag = std::to_string(::getpid());
    TestFiles f;
    f.lef = testing::TempDir() + "pao_serve_test_" + tag + ".lef";
    f.def = testing::TempDir() + "pao_serve_test_" + tag + ".def";
    std::ofstream(f.lef) << pao::lefdef::writeLef(*tc.tech, *tc.lib);
    std::ofstream(f.def) << pao::lefdef::writeDef(*tc.design);
    return f;
  }();
  return files;
}

std::string loadLine(const std::string& tenant) {
  return "{\"cmd\":\"load\",\"tenant\":\"" + tenant + "\",\"lef\":\"" +
         testFiles().lef + "\",\"def\":\"" + testFiles().def + "\"}";
}

Json parseResponse(const std::string& line) {
  std::string error;
  const auto doc = Json::parse(line, &error);
  EXPECT_TRUE(doc.has_value()) << error << " in: " << line;
  return doc.value_or(Json::object());
}

/// Asserts ok:true and returns the result object.
Json expectOk(const std::string& line) {
  const Json doc = parseResponse(line);
  const Json* ok = doc.find("ok");
  EXPECT_TRUE(ok != nullptr && ok->isBool() && ok->asBool()) << line;
  const Json* result = doc.find("result");
  EXPECT_NE(result, nullptr) << line;
  return result != nullptr ? *result : Json::object();
}

void expectError(const std::string& line, std::string_view code) {
  const Json doc = parseResponse(line);
  const Json* ok = doc.find("ok");
  ASSERT_TRUE(ok != nullptr && ok->isBool()) << line;
  EXPECT_FALSE(ok->asBool()) << line;
  const Json* got = doc.find("code");
  ASSERT_TRUE(got != nullptr && got->isString()) << line;
  EXPECT_EQ(got->asString(), code) << line;
}

// --- protocol -------------------------------------------------------------

TEST(ServeProtocol, ParsesWellFormedRequests) {
  const Request r =
      parseRequest("{\"cmd\":\"move\",\"tenant\":\"a\",\"inst\":3}");
  EXPECT_FALSE(r.malformed);
  EXPECT_EQ(r.cmd, "move");
  EXPECT_EQ(r.tenant, "a");
  ASSERT_NE(r.doc.find("inst"), nullptr);
  EXPECT_EQ(r.doc.find("inst")->asInt(), 3);
}

TEST(ServeProtocol, FlagsMalformedJson) {
  EXPECT_TRUE(parseRequest("{not json").malformed);
  EXPECT_TRUE(parseRequest("42").malformed);  // not an object
  EXPECT_FALSE(parseRequest("{}").malformed);
}

TEST(ServeProtocol, ClassifiesSerialCommands) {
  for (const char* cmd :
       {"ping", "load", "unload", "metrics", "profile", "shutdown"}) {
    EXPECT_TRUE(pao::serve::isSerialCommand(cmd)) << cmd;
  }
  for (const char* cmd : {"move", "orient", "add", "remove", "query",
                          "report", "save", "history"}) {
    EXPECT_FALSE(pao::serve::isSerialCommand(cmd)) << cmd;
    EXPECT_TRUE(pao::serve::isKnownCommand(cmd)) << cmd;
  }
  EXPECT_FALSE(pao::serve::isKnownCommand("frobnicate"));
}

TEST(ServeProtocol, ResponseLinesAreCompactSingleLine) {
  Json result = Json::object();
  result.set("x", Json(1));
  const std::string ok = pao::serve::okLine(std::move(result));
  EXPECT_EQ(ok, "{\"ok\":true,\"result\":{\"x\":1}}");
  EXPECT_EQ(ok.find('\n'), std::string::npos);
  const std::string err = pao::serve::errorLine(pao::serve::kErrUnknownCommand,
                                                "no such command");
  EXPECT_EQ(err,
            "{\"ok\":false,\"code\":\"SRV003\",\"error\":\"no such "
            "command\"}");
  const std::string errWithId = pao::serve::errorLine(
      pao::serve::kErrUnknownCommand, "no such command", 42);
  EXPECT_EQ(errWithId,
            "{\"ok\":false,\"code\":\"SRV003\",\"error\":\"no such "
            "command\",\"req\":42}");
}

// --- dispatch diagnostics -------------------------------------------------

TEST(ServeDispatch, StableErrorCodes) {
  Service service(ServiceConfig{});
  expectError(service.handleLine("{oops"), "SRV001");
  expectError(service.handleLine("{\"nocmd\":1}"), "SRV002");
  expectError(service.handleLine("{\"cmd\":\"frobnicate\"}"), "SRV003");
  expectError(service.handleLine("{\"cmd\":\"move\",\"tenant\":\"ghost\","
                                 "\"inst\":0,\"dx\":10}"),
              "SRV004");
  expectError(service.handleLine("{\"cmd\":\"report\"}"), "SRV002");
  expectOk(service.handleLine(loadLine("t1")));
  expectError(service.handleLine(loadLine("t1")), "SRV005");
  expectError(service.handleLine("{\"cmd\":\"load\",\"tenant\":\"bad\","
                                 "\"lef\":\"/nonexistent.lef\","
                                 "\"def\":\"/nonexistent.def\"}"),
              "SRV007");
  // A failed load must not leave a half-registered tenant behind.
  EXPECT_EQ(service.tenantCount(), 1u);
  expectError(service.handleLine("{\"cmd\":\"move\",\"tenant\":\"t1\","
                                 "\"inst\":99999,\"dx\":10}"),
              "SRV008");
  expectError(service.handleLine("{\"cmd\":\"move\",\"tenant\":\"t1\","
                                 "\"inst\":\"no_such_inst\",\"dx\":10}"),
              "SRV008");
  expectError(service.handleLine("{\"cmd\":\"move\",\"tenant\":\"t1\","
                                 "\"inst\":0,\"dx\":\"ten\"}"),
              "SRV002");
}

TEST(ServeDispatch, ErrorResponsesCarryMonotonicRequestIds) {
  Service service(ServiceConfig{});
  const Json a = parseResponse(service.handleLine("{oops"));
  const Json b = parseResponse(service.handleLine("{\"cmd\":\"nope\"}"));
  const Json* reqA = a.find("req");
  const Json* reqB = b.find("req");
  ASSERT_TRUE(reqA != nullptr && reqA->isInt());
  ASSERT_TRUE(reqB != nullptr && reqB->isInt());
  EXPECT_GE(reqA->asInt(), 1);
  EXPECT_GT(reqB->asInt(), reqA->asInt());
  // The SRV006 admission-reject path gets an id too.
  ServiceConfig tight;
  tight.tenantBudget = 1;
  Service tightService(tight);
  const Request hold = parseRequest("{\"cmd\":\"query\",\"tenant\":\"t\"}");
  ASSERT_TRUE(tightService.tryAdmit(hold));
  const Json busy = parseResponse(
      tightService.handleLine("{\"cmd\":\"query\",\"tenant\":\"t\"}"));
  const Json* reqBusy = busy.find("req");
  ASSERT_TRUE(reqBusy != nullptr && reqBusy->isInt());
  tightService.release(hold);
  // Successful responses carry no "req" — the ok-line shape is unchanged.
  const Json pong = parseResponse(tightService.handleLine("{\"cmd\":\"ping\"}"));
  EXPECT_EQ(pong.find("req"), nullptr);
}

#if PAO_OBS_ENABLED
TEST(ServeDispatch, MetricsResponseCarriesLatencyDigest) {
  Service service(ServiceConfig{});
  expectOk(service.handleLine("{\"cmd\":\"ping\"}"));
  const Json metrics = expectOk(service.handleLine("{\"cmd\":\"metrics\"}"));
  const Json* latency = metrics.find("latency");
  ASSERT_NE(latency, nullptr);
  const Json* count = latency->find("count");
  ASSERT_TRUE(count != nullptr && count->isInt());
  EXPECT_GE(count->asInt(), 1);  // registry is process-global
  double prev = 0;
  for (const char* key : {"p50Micros", "p95Micros", "p99Micros"}) {
    const Json* q = latency->find(key);
    ASSERT_TRUE(q != nullptr && q->isNumber()) << key;
    EXPECT_GE(q->asDouble(), prev) << key;  // quantiles are monotonic
    prev = q->asDouble();
  }
}

TEST(ServeDispatch, ProfileCommandReturnsLastBatchGraph) {
  Service service(ServiceConfig{});
  // No concurrent batch has run yet.
  const Json before = expectOk(service.handleLine("{\"cmd\":\"profile\"}"));
  ASSERT_NE(before.find("available"), nullptr);
  EXPECT_FALSE(before.find("available")->asBool());

  expectOk(service.handleLine(loadLine("pa")));
  expectOk(service.handleLine(loadLine("pb")));
  std::vector<Request> batch;
  batch.push_back(parseRequest("{\"cmd\":\"query\",\"tenant\":\"pa\"}"));
  batch.push_back(parseRequest("{\"cmd\":\"query\",\"tenant\":\"pb\"}"));
  for (const Request& r : batch) ASSERT_TRUE(service.tryAdmit(r));
  const std::vector<std::string> responses = service.dispatchBatch(batch);
  for (const Request& r : batch) service.release(r);
  ASSERT_EQ(responses.size(), 2u);

  const Json after = expectOk(service.handleLine("{\"cmd\":\"profile\"}"));
  ASSERT_NE(after.find("available"), nullptr);
  ASSERT_TRUE(after.find("available")->asBool());
  const Json* profile = after.find("profile");
  ASSERT_NE(profile, nullptr);
  std::string error;
  EXPECT_TRUE(pao::obs::validateProfileSection(*profile, &error)) << error;
  EXPECT_EQ(profile->find("jobs")->asInt(), 2);
}
#endif

TEST(ServeDispatch, ErrorsDoNotPoisonTheSession) {
  Service service(ServiceConfig{});
  expectOk(service.handleLine(loadLine("t1")));
  expectError(service.handleLine("{\"cmd\":\"move\",\"tenant\":\"t1\","
                                 "\"inst\":99999,\"dx\":10}"),
              "SRV008");
  const Json moved = expectOk(service.handleLine(
      "{\"cmd\":\"move\",\"tenant\":\"t1\",\"inst\":0,\"dx\":380}"));
  ASSERT_NE(moved.find("seq"), nullptr);
  EXPECT_EQ(moved.find("seq")->asInt(), 1);  // failed move did not bump seq
  expectOk(service.handleLine("{\"cmd\":\"query\",\"tenant\":\"t1\"}"));
}

TEST(ServeDispatch, MaxTenantsIsEnforced) {
  ServiceConfig cfg;
  cfg.maxTenants = 1;
  Service service(cfg);
  expectOk(service.handleLine(loadLine("t1")));
  expectError(service.handleLine(loadLine("t2")), "SRV008");
  expectOk(service.handleLine("{\"cmd\":\"unload\",\"tenant\":\"t1\"}"));
  expectOk(service.handleLine(loadLine("t2")));
}

// --- admission control ----------------------------------------------------

TEST(ServeAdmission, BudgetIsPerTenantAndReleased) {
  ServiceConfig cfg;
  cfg.tenantBudget = 2;
  Service service(cfg);
  const Request a = parseRequest("{\"cmd\":\"query\",\"tenant\":\"a\"}");
  const Request b = parseRequest("{\"cmd\":\"query\",\"tenant\":\"b\"}");
  const Request global = parseRequest("{\"cmd\":\"ping\"}");

  EXPECT_TRUE(service.tryAdmit(a));
  EXPECT_TRUE(service.tryAdmit(a));
  EXPECT_FALSE(service.tryAdmit(a));  // budget of 2 exhausted
  EXPECT_TRUE(service.tryAdmit(b));   // other tenants unaffected
  EXPECT_TRUE(service.tryAdmit(global));  // global commands uncounted
  EXPECT_EQ(service.inflight("a"), 2u);
  EXPECT_EQ(service.inflightTotal(), 3u);

  service.release(a);
  EXPECT_TRUE(service.tryAdmit(a));  // slot freed
  service.release(a);
  service.release(a);
  service.release(b);
  EXPECT_EQ(service.inflightTotal(), 0u);
}

TEST(ServeAdmission, HandleLineRejectsOverBudgetWithBusy) {
  ServiceConfig cfg;
  cfg.tenantBudget = 1;
  Service service(cfg);
  expectOk(service.handleLine(loadLine("t1")));
  const Request hold = parseRequest("{\"cmd\":\"query\",\"tenant\":\"t1\"}");
  ASSERT_TRUE(service.tryAdmit(hold));
  expectError(service.handleLine("{\"cmd\":\"query\",\"tenant\":\"t1\"}"),
              "SRV006");
  service.release(hold);
  expectOk(service.handleLine("{\"cmd\":\"query\",\"tenant\":\"t1\"}"));
}

// --- service-level equivalence --------------------------------------------

/// The tentpole contract: after an arbitrary mutation sequence, the
/// service's report must be byte-identical (normalized, modulo "tool") to a
/// fresh batch analysis of the design the service saves.
TEST(ServeEquivalence, ReportMatchesFreshBatchRunOfSavedDesign) {
  Service service(ServiceConfig{});
  expectOk(service.handleLine(loadLine("t1")));
  expectOk(service.handleLine(
      "{\"cmd\":\"move\",\"tenant\":\"t1\",\"inst\":0,\"dx\":380}"));
  expectOk(service.handleLine(
      "{\"cmd\":\"orient\",\"tenant\":\"t1\",\"inst\":1,"
      "\"orient\":\"MY\"}"));
  expectOk(service.handleLine(
      "{\"cmd\":\"add\",\"tenant\":\"t1\",\"name\":\"fresh_inst\","
      "\"master\":\"INVX1\",\"x\":3800,\"y\":1900}"));
  expectOk(service.handleLine(
      "{\"cmd\":\"remove\",\"tenant\":\"t1\",\"inst\":2}"));

  const std::string savedDef = testing::TempDir() + "pao_serve_equiv.def";
  expectOk(service.handleLine(
      "{\"cmd\":\"save\",\"tenant\":\"t1\",\"def\":\"" + savedDef + "\"}"));
  const Json reportResult =
      expectOk(service.handleLine("{\"cmd\":\"report\",\"tenant\":\"t1\"}"));
  const Json* serveReport = reportResult.find("report");
  ASSERT_NE(serveReport, nullptr);
  std::string error;
  EXPECT_TRUE(pao::obs::validateReport(*serveReport, &error)) << error;

  // Fresh batch analysis of the saved post-mutation design.
  pao::db::Tech tech;
  pao::db::Library lib;
  auto slurp = [](const std::string& path) {
    std::stringstream ss;
    ss << std::ifstream(path).rdbuf();
    return ss.str();
  };
  pao::lefdef::parseLef(slurp(testFiles().lef), tech, lib);
  pao::db::Design design;
  design.tech = &tech;
  design.lib = &lib;
  pao::lefdef::parseDef(slurp(savedDef), design);
  const pao::db::Design& frozen = design;
  pao::core::OracleConfig cfg = pao::core::withBcaConfig();
  cfg.numThreads = 1;
  pao::core::OracleSession batch(frozen, cfg);
  const pao::core::OracleResult res = batch.snapshot();
  const auto dirty = pao::core::countDirtyAps(frozen, res);
  const auto failed = pao::core::countFailedPins(frozen, res);
  pao::obs::RunReport expected("pao_serve report");
  expected.section("design") =
      pao::core::designSectionJson(tech, lib, frozen);
  expected.section("config") = pao::core::analysisConfigJson("bca", 1, false);
  expected.section("oracle") =
      pao::core::oracleSectionJson(res, dirty, failed);
  if (!res.degraded.empty()) {
    expected.section("degraded") =
        pao::core::degradedSectionJson(res.degraded);
  }

  EXPECT_EQ(pao::obs::normalizeForCompare(*serveReport).dump(),
            pao::obs::normalizeForCompare(expected.doc()).dump());
}

/// The region query as a linear scan over every instance: the reference
/// the row-index lookup of Service::cmdQuery must reproduce byte for byte.
Json referenceQuery(const pao::core::OracleSession& session,
                    const pao::db::Design& design,
                    const pao::geom::Rect& region) {
  Json instances = Json::array();
  for (std::size_t i = 0; i < design.instances.size(); ++i) {
    const pao::geom::Rect bbox = design.instances[i].bbox();
    if (!(bbox.xlo < region.xhi && region.xlo < bbox.xhi &&
          bbox.ylo < region.yhi && region.ylo < bbox.yhi)) {
      continue;
    }
    const int idx = static_cast<int>(i);
    Json j = Json::object();
    j.set("inst", Json(i));
    j.set("name", Json(design.instances[i].name));
    j.set("pattern", Json(session.chosenPattern()[i]));
    Json aps = Json::array();
    const int cls = session.unique().classOf[i];
    if (cls >= 0) {
      const std::size_t pins = session.classAccess(cls).pinAps.size();
      for (std::size_t p = 0; p < pins; ++p) {
        const auto ap = session.chosenAp(idx, static_cast<int>(p));
        if (!ap) continue;
        Json a = Json::object();
        a.set("pin", Json(p));
        a.set("x", Json(static_cast<long long>(ap->loc.x)));
        a.set("y", Json(static_cast<long long>(ap->loc.y)));
        aps.push(std::move(a));
      }
    }
    j.set("aps", std::move(aps));
    instances.push(std::move(j));
  }
  Json result = Json::object();
  result.set("instances", std::move(instances));
  return result;
}

// Random regions — empty, inverted, degenerate, off the die — after edits
// that move instances half a row off their rows and flip them: the
// tenant's query responses equal the linear-scan reference over a local
// session that saw the same edits.
TEST(ServeQuery, RowIndexLookupMatchesLinearScan) {
  Service service(ServiceConfig{});
  expectOk(service.handleLine(loadLine("q")));
  auto slurp = [](const std::string& path) {
    std::stringstream ss;
    ss << std::ifstream(path).rdbuf();
    return ss.str();
  };
  pao::db::Tech tech;
  pao::db::Library lib;
  pao::lefdef::parseLef(slurp(testFiles().lef), tech, lib);
  pao::db::Design design;
  design.tech = &tech;
  design.lib = &lib;
  pao::lefdef::parseDef(slurp(testFiles().def), design);
  pao::core::OracleSession local(design, pao::core::withBcaConfig());

  std::uint64_t state = 99;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 17;
  };
  const pao::geom::Rect die = design.dieArea;
  const auto coord = [&](long long lo, long long hi) {
    return lo + static_cast<long long>(next() % static_cast<std::uint64_t>(
                                                    hi - lo + 1));
  };
  const long long rowHeight = design.rows.front().height;
  for (int step = 0; step < 40; ++step) {
    const int inst = static_cast<int>(next() % design.instances.size());
    if (step % 5 == 4) {
      expectOk(service.handleLine(
          "{\"cmd\":\"orient\",\"tenant\":\"q\",\"inst\":" +
          std::to_string(inst) + ",\"orient\":\"MY\"}"));
      local.setOrient(inst, pao::geom::Orient::MY);
    } else {
      const long long dx = 380 * coord(-4, 4);
      const long long dy = rowHeight / 2 * coord(-2, 2);
      expectOk(service.handleLine(
          "{\"cmd\":\"move\",\"tenant\":\"q\",\"inst\":" +
          std::to_string(inst) + ",\"dx\":" + std::to_string(dx) +
          ",\"dy\":" + std::to_string(dy) + "}"));
      const pao::geom::Point at = design.instances[inst].origin;
      local.moveInstance(inst, {at.x + dx, at.y + dy});
    }
    for (int q = 0; q < 5; ++q) {
      long long box[4] = {coord(die.xlo - 2000, die.xhi + 2000),
                          coord(die.ylo - 2000, die.yhi + 2000),
                          coord(die.xlo - 2000, die.xhi + 2000),
                          coord(die.ylo - 2000, die.yhi + 2000)};
      if (q == 0) box[2] = box[0];  // zero width: nothing overlaps
      const std::string region =
          "[" + std::to_string(box[0]) + "," + std::to_string(box[1]) + "," +
          std::to_string(box[2]) + "," + std::to_string(box[3]) + "]";
      const Json got = expectOk(service.handleLine(
          "{\"cmd\":\"query\",\"tenant\":\"q\",\"region\":" + region +
          "}"));
      EXPECT_EQ(got.dump(),
                referenceQuery(local, design,
                               pao::geom::Rect(box[0], box[1], box[2], box[3]))
                    .dump())
          << "step " << step << " region " << region;
    }
  }
  // The whole die (no region) lists every instance.
  EXPECT_EQ(
      expectOk(service.handleLine("{\"cmd\":\"query\",\"tenant\":\"q\"}"))
          .dump(),
      referenceQuery(local, design, design.dieArea).dump());
}

TEST(ServeEquivalence, TenantsShareTheCacheThroughInternedLibraries) {
  Service service(ServiceConfig{});
  expectOk(service.handleLine(loadLine("t1")));
  const std::size_t missesAfterFirst = service.cache().misses();
  EXPECT_GT(missesAfterFirst, 0u);
  const std::size_t hitsAfterFirst = service.cache().hits();
  // Same LEF → interned library → same Master pointers → t2's initial
  // analysis is answered entirely from t1's cache entries.
  const Json loaded = expectOk(service.handleLine(loadLine("t2")));
  EXPECT_GT(service.cache().hits(), hitsAfterFirst);
  EXPECT_EQ(service.cache().misses(), missesAfterFirst);
  ASSERT_NE(loaded.find("classBuilds"), nullptr);
  EXPECT_EQ(loaded.find("classBuilds")->asInt(), 0);
}

// --- batch dispatch -------------------------------------------------------

TEST(ServeDispatch, BatchRunsDistinctTenantsAndAlignsResponses) {
  ServiceConfig cfg;
  cfg.numThreads = 1;
  Service service(cfg);
  expectOk(service.handleLine(loadLine("a")));
  expectOk(service.handleLine(loadLine("b")));
  std::vector<Request> batch;
  batch.push_back(parseRequest(
      "{\"cmd\":\"move\",\"tenant\":\"a\",\"inst\":0,\"dx\":380}"));
  batch.push_back(parseRequest(
      "{\"cmd\":\"move\",\"tenant\":\"b\",\"inst\":1,\"dx\":-380}"));
  const std::vector<std::string> responses = service.dispatchBatch(batch);
  ASSERT_EQ(responses.size(), 2u);
  const Json ra = expectOk(responses[0]);
  const Json rb = expectOk(responses[1]);
  EXPECT_EQ(ra.find("inst")->asInt(), 0);  // response i answers request i
  EXPECT_EQ(rb.find("inst")->asInt(), 1);
}

TEST(ServeDispatch, BatchBreakingTheTransportRuleIsRejected) {
  ServiceConfig cfg;
  cfg.numThreads = 1;
  Service service(cfg);
  expectOk(service.handleLine(loadLine("a")));
  const std::string move =
      "{\"cmd\":\"move\",\"tenant\":\"a\",\"inst\":0,\"dx\":380}";
  const std::vector<Request> sameTenant = {parseRequest(move),
                                           parseRequest(move)};
  EXPECT_THROW(service.dispatchBatch(sameTenant), std::invalid_argument);
  const std::vector<Request> withPing = {parseRequest(move),
                                         parseRequest("{\"cmd\":\"ping\"}")};
  EXPECT_THROW(service.dispatchBatch(withPing), std::invalid_argument);
  // Nothing was dispatched: the tenant has no applied mutation.
  const Json history = expectOk(
      service.handleLine("{\"cmd\":\"history\",\"tenant\":\"a\"}"));
  ASSERT_NE(history.find("seq"), nullptr);
  EXPECT_EQ(history.find("seq")->asInt(), 0);
}

// --- soak -----------------------------------------------------------------

/// A blocking-socket client for the soak test. Runs on a parallelFor
/// worker; tests/ is exempt from the src/serve/ socket-I/O lint ban.
class SoakClient {
 public:
  explicit SoakClient(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    // The listen backlog holds us until the event loop starts.
    connected_ = fd_ >= 0 && connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                     sizeof(addr)) == 0;
  }
  ~SoakClient() {
    if (fd_ >= 0) close(fd_);
  }
  bool connected() const { return connected_; }

  /// One round-trip: sends `line`, returns the response line.
  std::string roundTrip(const std::string& line) {
    const std::string out = line + "\n";
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t n =
          send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return {};
      off += static_cast<std::size_t>(n);
    }
    while (true) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        const std::string reply = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return reply;
      }
      char buf[4096];
      const ssize_t n = read(fd_, buf, sizeof(buf));
      if (n <= 0) return {};
      buffer_.append(buf, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

/// ≥4 client threads across 2 tenants hammer a live TCP server; the final
/// per-tenant report must equal a serial replay of that tenant's recorded
/// mutation history in a fresh deterministic service. Runs under TSan in
/// the ci.sh TSan leg, which is what locks in the data-race freedom of the
/// shared cache and admission bookkeeping.
TEST(ServeSoak, ConcurrentClientsMatchSerialReplay) {
  constexpr int kClients = 4;
  constexpr int kMovesPerClient = 6;
  const std::vector<std::string> tenants = {"s0", "s1"};

  ServiceConfig serviceCfg;
  serviceCfg.numThreads = 1;
  serviceCfg.tenantBudget = 2;  // small budget → stall path gets exercised
  Service service(serviceCfg);
  ServerConfig serverCfg;
  serverCfg.tcpPort = 0;  // ephemeral
  pao::serve::Server server(service, serverCfg);
  ASSERT_NO_THROW(server.start());
  const int port = server.boundPort();
  ASSERT_GT(port, 0);

  std::atomic<bool> loaded{false};
  std::atomic<int> done{0};
  std::atomic<int> failures{0};
  std::vector<std::string> histories(tenants.size());
  std::vector<std::string> reports(tenants.size());

  pao::util::parallelFor(
      1 + kClients,
      [&](std::size_t task) {
        if (task == 0) {
          server.run();  // calling thread grabs index 0 first
          return;
        }
        SoakClient client(port);
        if (!client.connected()) {
          ++failures;
          // Still count ourselves done — and make sure the server does not
          // wait forever for a shutdown request that will never come.
          if (++done == kClients) server.stop();
          return;
        }
        const int id = static_cast<int>(task) - 1;
        if (id == 0) {
          for (const std::string& t : tenants) {
            const Json doc = parseResponse(client.roundTrip(loadLine(t)));
            const Json* ok = doc.find("ok");
            if (ok == nullptr || !ok->asBool()) ++failures;
          }
          loaded = true;
        } else {
          while (!loaded) {
            // Spin-wait for the loader client; the server is concurrently
            // answering its load requests on the index-0 task.
          }
        }
        const std::string& tenant = tenants[id % tenants.size()];
        for (int m = 0; m < kMovesPerClient; ++m) {
          const int inst = id;  // distinct instance per client, no overlap
          const int dx = (m % 2 == 0) ? 380 : -380;
          const std::string resp = client.roundTrip(
              "{\"cmd\":\"move\",\"tenant\":\"" + tenant +
              "\",\"inst\":" + std::to_string(inst) +
              ",\"dx\":" + std::to_string(dx) + "}");
          const Json doc = parseResponse(resp);
          const Json* ok = doc.find("ok");
          if (ok == nullptr || !ok->asBool()) ++failures;
          client.roundTrip("{\"cmd\":\"query\",\"tenant\":\"" + tenant +
                           "\"}");
        }
        if (++done == kClients) {
          // Last client standing collects the ground truth and stops the
          // server; per-tenant history is the replay script.
          for (std::size_t t = 0; t < tenants.size(); ++t) {
            histories[t] = client.roundTrip(
                "{\"cmd\":\"history\",\"tenant\":\"" + tenants[t] + "\"}");
            reports[t] = client.roundTrip(
                "{\"cmd\":\"report\",\"tenant\":\"" + tenants[t] + "\"}");
          }
          client.roundTrip("{\"cmd\":\"shutdown\"}");
        }
      },
      1 + kClients);

  EXPECT_EQ(failures.load(), 0);
  // Both tenants loaded the same LEF: the second load and every re-signature
  // must have hit the shared cross-tenant cache.
  EXPECT_GT(service.cache().hits(), 0u);

  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const Json historyResult = expectOk(histories[t]);
    const Json* mutations = historyResult.find("mutations");
    ASSERT_NE(mutations, nullptr);
    // kClients/2 clients per tenant, kMovesPerClient moves each.
    EXPECT_EQ(mutations->items().size(),
              static_cast<std::size_t>(kClients / 2 * kMovesPerClient));

    ServiceConfig replayCfg;
    replayCfg.numThreads = 1;
    replayCfg.deterministic = true;
    Service replay(replayCfg);
    expectOk(replay.handleLine(loadLine(tenants[t])));
    for (const Json& line : mutations->items()) {
      expectOk(replay.handleLine(line.asString()));
    }
    const Json replayReport = expectOk(replay.handleLine(
        "{\"cmd\":\"report\",\"tenant\":\"" + tenants[t] + "\"}"));
    const Json soakReport = expectOk(reports[t]);
    ASSERT_NE(soakReport.find("report"), nullptr);
    ASSERT_NE(replayReport.find("report"), nullptr);
    EXPECT_EQ(
        pao::obs::normalizeForCompare(*soakReport.find("report")).dump(),
        pao::obs::normalizeForCompare(*replayReport.find("report")).dump())
        << "tenant " << tenants[t];
  }
}

}  // namespace
