#include "service/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <csignal>
#include <cstring>

#include "support/error.hpp"

namespace systolize::service {

namespace {

/// Hard cap on one request line; anything longer is a protocol abuse and
/// the connection is dropped rather than buffered without bound.
constexpr std::size_t kMaxLineBytes = std::size_t{4} * 1024 * 1024;

/// Signal flag polled by the acceptor (a handler may only touch
/// lock-free atomics; the actual shutdown work happens on the acceptor
/// thread, not in signal context).
std::atomic<bool> g_signal_stop{false};

void on_signal(int) { g_signal_stop.store(true, std::memory_order_relaxed); }

}  // namespace

Server::Conn::~Conn() {
  if (fd >= 0) ::close(fd);
}

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      queue_(config_.queue_depth, config_.tenant_cap),
      executor_(config_.executor) {
  executor_.set_queue(&queue_);
}

Server::~Server() {
  shutdown();
  if (started_ && !waited_) wait();
}

void Server::install_signal_handlers() {
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
}

void Server::start() {
  if (config_.socket_path.empty()) {
    raise(ErrorKind::Validation, "serve: socket path must not be empty");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (config_.socket_path.size() >= sizeof(addr.sun_path)) {
    raise(ErrorKind::Validation,
          "serve: socket path too long (" + config_.socket_path + ")");
  }
  std::strncpy(addr.sun_path, config_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    raise(ErrorKind::Io, "serve: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  ::unlink(config_.socket_path.c_str());  // stale socket from a dead server
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    raise(ErrorKind::Io,
          "serve: cannot bind '" + config_.socket_path + "': " + why);
  }
  if (::listen(listen_fd_, 64) < 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    raise(ErrorKind::Io, "serve: listen() failed: " + why);
  }

  const std::size_t workers = config_.workers == 0 ? 1 : config_.workers;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  acceptor_ = std::thread([this] { accept_loop(); });
  started_ = true;
}

void Server::shutdown() { stop_.store(true, std::memory_order_relaxed); }

void Server::accept_loop() {
  for (;;) {
    if (stop_.load(std::memory_order_relaxed) ||
        g_signal_stop.load(std::memory_order_relaxed)) {
      break;
    }
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 200);  // 200ms shutdown-poll cadence
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0 || (pfd.revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(conn);
    readers_.emplace_back([this, conn] { reader_loop(conn); });
  }
  shutdown();  // a signal landed: make the stop visible to wait()
}

void Server::send_line(Conn& conn, const std::string& line) {
  std::lock_guard<std::mutex> lock(conn.write_mu);
  std::string framed = line + '\n';
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n = ::send(conn.fd, framed.data() + off, framed.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return;  // client gone; the verdict still counted server-side
    off += static_cast<std::size_t>(n);
  }
}

void Server::handle_line(const std::shared_ptr<Conn>& conn,
                         const std::string& line) {
  Request req;
  try {
    parse_request_into(line, req);
  } catch (const Error& e) {
    Response r;
    r.id = req.id;
    r.op = req.op;
    r.status = "error";
    r.kind = error_kind_name(e.kind());
    r.retryable = e.retryable();
    r.verdict = r.kind;
    r.message = e.what();
    send_line(*conn, r.to_json());
    return;
  }
  if (req.op == "shutdown") {
    Response r;
    r.id = req.id;
    r.op = req.op;
    r.status = "ok";
    r.verdict = "success";
    r.message = "draining";
    send_line(*conn, r.to_json());
    shutdown();
    return;
  }
  Job job;
  job.req = req;
  job.respond = [this, conn](const Response& r) {
    send_line(*conn, r.to_json());
  };
  const Admission a = queue_.try_push(std::move(job));
  if (!a.admitted) {
    Response r;
    r.id = req.id;
    r.op = req.op;
    r.status = a.reason == "shutting down" ? "shutting-down" : "rejected";
    r.kind = error_kind_name(ErrorKind::Overload);
    r.retryable = true;
    r.retry_after_ms = a.retry_after_ms;
    r.message = a.reason;
    send_line(*conn, r.to_json());
  }
}

void Server::reader_loop(std::shared_ptr<Conn> conn) {
  std::string buf;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;  // EOF, error, or shutdown() of the fd during drain
    buf.append(chunk, static_cast<std::size_t>(n));
    if (buf.size() > kMaxLineBytes) break;  // abusive line; drop the client
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buf.find('\n', start);
      if (nl == std::string::npos) break;
      if (nl > start) handle_line(conn, buf.substr(start, nl - start));
      start = nl + 1;
    }
    buf.erase(0, start);
  }
}

void Server::worker_loop() {
  // Warm identical run requests waiting together become SoA lanes of one
  // batched dispatch; the group cap bounds dispatch latency and memory.
  constexpr std::size_t kMaxCoalesce = 64;
  for (;;) {
    std::vector<Job> group = queue_.pop_group(kMaxCoalesce);
    if (group.empty()) return;  // closed and drained
    std::vector<Request> reqs;
    reqs.reserve(group.size());
    for (const Job& job : group) reqs.push_back(job.req);
    const std::vector<Response> rs = executor_.handle_group(reqs);
    for (std::size_t i = 0; i < group.size(); ++i) {
      group[i].respond(rs[i]);
      queue_.finish(group[i].req.tenant);
    }
  }
}

void Server::wait() {
  if (!started_ || waited_) return;
  if (acceptor_.joinable()) acceptor_.join();
  // 1. no new connections (acceptor gone); stop admitting.
  queue_.close();
  // 2. drain: every admitted request gets its worker and its response.
  queue_.wait_idle();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // 3. wake readers blocked in recv() and join them.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& conn : conns_) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  for (std::thread& r : readers_) {
    if (r.joinable()) r.join();
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(config_.socket_path.c_str());
  // 4. flush metrics: the final stats snapshot survives the server.
  final_stats_ = executor_.stats_json();
  waited_ = true;
}

}  // namespace systolize::service
