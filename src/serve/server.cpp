#include "serve/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/fault.hpp"

namespace pao::serve {

namespace {

constexpr int kMaxEvents = 64;

/// Decodes errno for ServeError messages. All call sites run on the single
/// event-loop thread (setup and the epoll loop), so the static buffer
/// behind std::strerror is never read concurrently; funneling the one
/// deliberate use through this helper keeps that argument in one place.
std::string errnoString(int err) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): single event-loop thread, above.
  return std::strerror(err);
}

void addEpoll(int epollFd, int fd, unsigned events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (epoll_ctl(epollFd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw ServeError(std::string("epoll_ctl add: ") + errnoString(errno));
  }
}

void modEpoll(int epollFd, int fd, unsigned events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  // A concurrently-dropped fd is already out of the set; ignore failures.
  epoll_ctl(epollFd, EPOLL_CTL_MOD, fd, &ev);
}

}  // namespace

Server::Server(Service& service, ServerConfig cfg)
    : service_(service), cfg_(std::move(cfg)) {}

Server::~Server() { closeAll(); }

void Server::start() {
  if (cfg_.unixSocketPath.empty() == (cfg_.tcpPort < 0)) {
    throw ServeError("configure exactly one of unixSocketPath / tcpPort");
  }
  epollFd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epollFd_ < 0) {
    throw ServeError(std::string("epoll_create1: ") + errnoString(errno));
  }
  wakeFd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wakeFd_ < 0) {
    throw ServeError(std::string("eventfd: ") + errnoString(errno));
  }
  addEpoll(epollFd_, wakeFd_, EPOLLIN);

  if (!cfg_.unixSocketPath.empty()) {
    listenFd_ = socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                       0);
    if (listenFd_ < 0) {
      throw ServeError(std::string("socket: ") + errnoString(errno));
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (cfg_.unixSocketPath.size() >= sizeof(addr.sun_path)) {
      throw ServeError("unix socket path too long: " + cfg_.unixSocketPath);
    }
    std::memcpy(addr.sun_path, cfg_.unixSocketPath.c_str(),
                cfg_.unixSocketPath.size() + 1);
    unlink(cfg_.unixSocketPath.c_str());
    if (bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
      throw ServeError("bind " + cfg_.unixSocketPath + ": " +
                       errnoString(errno));
    }
  } else {
    listenFd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                       0);
    if (listenFd_ < 0) {
      throw ServeError(std::string("socket: ") + errnoString(errno));
    }
    const int one = 1;
    setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.tcpPort));
    if (bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
      throw ServeError("bind 127.0.0.1:" + std::to_string(cfg_.tcpPort) +
                       ": " + errnoString(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
        0) {
      boundPort_ = ntohs(bound.sin_port);
    }
  }
  if (listen(listenFd_, cfg_.listenBacklog) != 0) {
    throw ServeError(std::string("listen: ") + errnoString(errno));
  }
  addEpoll(epollFd_, listenFd_, EPOLLIN);
}

void Server::run() {
  std::vector<epoll_event> events(kMaxEvents);
  while (!stopping_) {
    const int n = epoll_wait(epollFd_, events.data(), kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wakeFd_) {
        std::uint64_t token = 0;
        while (read(wakeFd_, &token, sizeof(token)) > 0) {
        }
        stopping_ = true;
      } else if (fd == listenFd_) {
        acceptAll();
      } else {
        handleEvent(fd, events[i].events);
      }
    }
    drainQueue();
    if (service_.shutdownRequested()) stopping_ = true;
  }
  closeAll();
}

void Server::stop() {
  if (wakeFd_ < 0) return;
  const std::uint64_t one = 1;
  // Async-signal-safe: a single write; the loop thread does the cleanup.
  [[maybe_unused]] const ssize_t n = write(wakeFd_, &one, sizeof(one));
}

void Server::acceptAll() {
  while (true) {
    const int fd =
        accept4(listenFd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;
    }
    if (PAO_FAULT_POINT("serve.accept")) {
      close(fd);
      ++stats_.dropped;
      PAO_COUNTER_INC("pao.serve.faulted_accepts");
      continue;
    }
    try {
      addEpoll(epollFd_, fd, EPOLLIN);
    } catch (const ServeError&) {
      close(fd);
      ++stats_.dropped;
      continue;
    }
    Conn conn;
    conn.fd = fd;
    conns_.emplace(fd, std::move(conn));
    ++stats_.accepted;
    PAO_COUNTER_INC("pao.serve.connections_total");
  }
}

void Server::handleEvent(int fd, unsigned events) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    dropConn(fd);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    flushWrites(conn);
    if (conns_.find(fd) == conns_.end()) return;  // dropped by a fault
  }
  if ((events & EPOLLIN) != 0 && !conn.stalled) {
    readAvailable(conn);
  }
}

void Server::readAvailable(Conn& conn) {
  while (true) {
    if (PAO_FAULT_POINT("serve.read")) {
      PAO_COUNTER_INC("pao.serve.faulted_reads");
      dropConn(conn.fd);
      return;
    }
    char buf[4096];
    const ssize_t n = read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      conn.in.append(buf, static_cast<std::size_t>(n));
      if (conn.in.size() > cfg_.maxLineBytes) {
        dropConn(conn.fd);
        return;
      }
      continue;
    }
    if (n == 0) {
      // EOF: keep any complete buffered lines (they were fully sent before
      // the client went away — their responses will simply be dropped);
      // discard a trailing partial line. Nothing was admitted for it, so
      // no budget leaks.
      parseConn(conn);
      if (conns_.find(conn.fd) != conns_.end()) dropConn(conn.fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    dropConn(conn.fd);
    return;
  }
  parseConn(conn);
}

void Server::parseConn(Conn& conn) {
  while (!conn.stalled) {
    const std::size_t nl = conn.in.find('\n');
    if (nl == std::string::npos) return;
    std::string line = conn.in.substr(0, nl);
    conn.in.erase(0, nl + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    Request req = parseRequest(std::move(line));
    if (!service_.tryAdmit(req)) {
      // Backpressure: park the request, stop reading this connection.
      conn.blocked = std::move(req);
      conn.hasBlocked = true;
      conn.stalled = true;
      ++stats_.stalls;
      PAO_COUNTER_INC("pao.serve.admission_stalls");
      updateInterest(conn);
      return;
    }
    queue_.push_back(Item{conn.fd, std::move(req)});
    ++stats_.requests;
  }
}

void Server::drainQueue() {
  while (!queue_.empty() && !stopping_) {
    // Batch = the longest queue prefix holding at most one request per
    // tenant and no serial command (a serial command forms a batch of
    // one). A strict prefix keeps per-connection response order equal to
    // request order.
    std::vector<Item> batch;
    while (!queue_.empty()) {
      const Request& head = queue_.front().req;
      if (runsAlone(head)) {
        if (batch.empty()) {
          batch.push_back(std::move(queue_.front()));
          queue_.pop_front();
        }
        break;
      }
      bool tenantBusy = false;
      for (const Item& item : batch) {
        if (item.req.tenant == head.tenant) tenantBusy = true;
      }
      if (tenantBusy) break;
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }

    std::vector<Request> requests;
    requests.reserve(batch.size());
    for (const Item& item : batch) requests.push_back(item.req);
    const std::vector<std::string> responses =
        service_.dispatchBatch(requests);

    for (std::size_t i = 0; i < batch.size(); ++i) {
      service_.release(batch[i].req);
      const auto it = conns_.find(batch[i].fd);
      if (it == conns_.end()) continue;  // client died; response dropped
      it->second.out += responses[i];
      it->second.out.push_back('\n');
      flushWrites(it->second);
    }
    retryStalled();
    if (service_.shutdownRequested()) return;
  }
}

void Server::retryStalled() {
  // Budget may have drained; re-admit parked head-of-line requests and
  // resume parsing their connections' buffers.
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) {
    if (conn.stalled) fds.push_back(fd);
  }
  for (const int fd : fds) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    Conn& conn = it->second;
    if (!conn.hasBlocked || !service_.tryAdmit(conn.blocked)) continue;
    queue_.push_back(Item{fd, std::move(conn.blocked)});
    ++stats_.requests;
    conn.blocked = Request{};
    conn.hasBlocked = false;
    conn.stalled = false;
    updateInterest(conn);
    parseConn(conn);  // may re-stall on the next over-budget line
  }
}

void Server::flushWrites(Conn& conn) {
  while (!conn.out.empty()) {
    if (PAO_FAULT_POINT("serve.write")) {
      PAO_COUNTER_INC("pao.serve.faulted_writes");
      dropConn(conn.fd);
      return;
    }
    const ssize_t n =
        send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn.out.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn.wantWrite) {
        conn.wantWrite = true;
        updateInterest(conn);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    dropConn(conn.fd);
    return;
  }
  if (conn.wantWrite) {
    conn.wantWrite = false;
    updateInterest(conn);
  }
}

void Server::updateInterest(Conn& conn) {
  unsigned events = 0;
  if (!conn.stalled) events |= EPOLLIN;
  if (conn.wantWrite) events |= EPOLLOUT;
  modEpoll(epollFd_, conn.fd, events);
}

void Server::dropConn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  // A parked (stalled) request was never admitted, so dropping it here
  // leaks nothing; admitted requests already in queue_ run to completion
  // and release their budget when their response is discarded.
  epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
  close(fd);
  conns_.erase(it);
  ++stats_.dropped;
}

void Server::closeAll() {
  // Best-effort flush of pending responses (the shutdown ack, usually).
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (const int fd : fds) {
    const auto it = conns_.find(fd);
    if (it != conns_.end() && !it->second.out.empty()) {
      flushWrites(it->second);
    }
  }
  for (const auto& [fd, conn] : conns_) close(fd);
  conns_.clear();
  if (listenFd_ >= 0) {
    close(listenFd_);
    listenFd_ = -1;
    if (!cfg_.unixSocketPath.empty()) unlink(cfg_.unixSocketPath.c_str());
  }
  if (wakeFd_ >= 0) {
    close(wakeFd_);
    wakeFd_ = -1;
  }
  if (epollFd_ >= 0) {
    close(epollFd_);
    epollFd_ = -1;
  }
}

}  // namespace pao::serve
