#include "service/transport.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "model/aiger.hpp"
#include "util/log.hpp"

namespace refbmc::service {

namespace {

std::string error_response(const std::string& message) {
  JsonWriter w;
  w.begin_object();
  w.kv("ok", false);
  w.kv("error", message);
  w.end_object();
  return w.str();
}

void write_status_member(JsonWriter& w, const JobStatus& status) {
  w.key("status");
  write_status(w, status);
}

std::string handle_submit(JobServer& server, const JsonValue& req) {
  const std::string aiger = req.get_string("aiger");
  if (aiger.empty()) return error_response("submit: missing 'aiger'");

  api::CheckRequest check;
  try {
    check.net = model::read_aiger_string(aiger);
  } catch (const std::exception& e) {
    return error_response(std::string("submit: bad AIGER: ") + e.what());
  }
  check.bad_index = static_cast<std::size_t>(req.get_int("bad", 0));
  check.name = req.get_string("name");
  if (const JsonValue* opts = req.find("options"))
    check.options = parse_race_options(*opts);

  JobOptions job;
  const std::string prio = req.get_string("priority", "normal");
  if (const auto p = parse_priority(prio))
    job.priority = *p;
  else
    return error_response("submit: unknown priority '" + prio + "'");
  job.deadline_sec = req.get_number("deadline_sec", -1.0);
  job.use_cache = req.get_bool("use_cache", true);
  const bool wait = req.get_bool("wait", false);

  const SubmitOutcome outcome = server.submit(std::move(check), job);

  JsonWriter w;
  w.begin_object();
  w.kv("ok", true);
  w.kv("accepted", outcome.accepted);
  w.kv("id", outcome.id);
  if (!outcome.accepted) w.kv("reason", to_string(outcome.reason));
  if (outcome.accepted && wait) {
    if (const auto status = server.wait(outcome.id))
      write_status_member(w, *status);
  }
  w.end_object();
  return w.str();
}

std::string handle_poll(JobServer& server, const JsonValue& req) {
  const JobId id = req.get_uint64("id");
  const auto status = server.poll(id);
  if (!status) return error_response("unknown job id");
  JsonWriter w;
  w.begin_object();
  w.kv("ok", true);
  write_status_member(w, *status);
  w.end_object();
  return w.str();
}

std::string handle_events(JobServer& server, const JsonValue& req) {
  const JobId id = req.get_uint64("id");
  if (!server.poll(id)) return error_response("unknown job id");
  JsonWriter w;
  w.begin_object();
  w.kv("ok", true);
  w.key("events");
  w.begin_array();
  for (const ProgressEvent& e : server.events(id, req.get_uint64("after"))) {
    w.begin_object();
    w.kv("seq", e.seq);
    w.kv("depth", e.depth);
    w.kv("result", e.result == sat::Result::Sat
                       ? "sat"
                       : e.result == sat::Result::Unsat ? "unsat" : "unknown");
    w.kv("decisions", e.decisions);
    w.kv("conflicts", e.conflicts);
    w.kv("time_sec", e.time_sec);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string handle_cancel(JobServer& server, const JsonValue& req) {
  const bool cancelled = server.cancel(req.get_uint64("id"));
  JsonWriter w;
  w.begin_object();
  w.kv("ok", true);
  w.kv("cancelled", cancelled);
  w.end_object();
  return w.str();
}

std::string handle_wait(JobServer& server, const JsonValue& req) {
  const JobId id = req.get_uint64("id");
  const auto status =
      server.wait(id, req.get_number("timeout_sec", -1.0));
  if (!status) {
    if (!server.poll(id)) return error_response("unknown job id");
    return error_response("wait: timed out");
  }
  JsonWriter w;
  w.begin_object();
  w.kv("ok", true);
  write_status_member(w, *status);
  w.end_object();
  return w.str();
}

std::string handle_stats(JobServer& server) {
  const JobServer::Stats s = server.stats();
  JsonWriter w;
  w.begin_object();
  w.kv("ok", true);
  w.kv("submitted", s.submitted);
  w.kv("rejected", s.rejected);
  w.kv("completed", s.completed);
  w.kv("cancelled", s.cancelled);
  w.kv("deadline_evictions", s.deadline_evictions);
  w.kv("cache_hits", s.cache_hits);
  w.kv("cache_misses", s.cache_misses);
  w.kv("queue_depth", static_cast<std::uint64_t>(s.queue_depth));
  w.kv("running", static_cast<std::uint64_t>(s.running));
  w.kv("cache_size", static_cast<std::uint64_t>(server.cache().size()));
  w.kv("cache_evictions", server.cache().evictions());
  w.end_object();
  return w.str();
}

}  // namespace

std::string handle_request(JobServer& server, const std::string& payload,
                           std::atomic<bool>* shutdown_requested) {
  std::string parse_error;
  const std::optional<JsonValue> req = json_parse(payload, &parse_error);
  if (!req || !req->is_object())
    return error_response("bad request: " +
                          (parse_error.empty() ? "not an object"
                                               : parse_error));
  const std::string op = req->get_string("op");
  if (op == "submit") return handle_submit(server, *req);
  if (op == "poll") return handle_poll(server, *req);
  if (op == "events") return handle_events(server, *req);
  if (op == "cancel") return handle_cancel(server, *req);
  if (op == "wait") return handle_wait(server, *req);
  if (op == "stats") return handle_stats(server);
  if (op == "shutdown") {
    if (shutdown_requested != nullptr)
      shutdown_requested->store(true, std::memory_order_release);
    JsonWriter w;
    w.begin_object();
    w.kv("ok", true);
    w.kv("shutting_down", true);
    w.end_object();
    return w.str();
  }
  return error_response("unknown op '" + op + "'");
}

// ---- SocketServer ----------------------------------------------------------

SocketServer::SocketServer(JobServer& server, std::string socket_path)
    : server_(server), socket_path_(std::move(socket_path)) {}

SocketServer::~SocketServer() { stop(); }

bool SocketServer::start(std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path_.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) *error = "socket path too long";
    return false;
  }
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  ::unlink(socket_path_.c_str());  // a stale path from a dead daemon
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    if (error != nullptr) *error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  // The accept thread gets the listener by value: stop() resets the
  // member while the thread may still be blocked in accept().
  stopping_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this, fd = listen_fd_] { accept_main(fd); });
  return true;
}

void SocketServer::accept_main(int listen_fd) {
  set_log_thread_tag("accept");
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed (stop()) or fatal
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    const std::lock_guard<std::mutex> lock(handlers_mu_);
    handlers_.emplace_back([this, fd] {
      set_log_thread_tag("conn");
      std::string payload;
      while (read_frame(fd, payload)) {
        const std::string response =
            handle_request(server_, payload, &shutdown_requested_);
        if (!write_frame(fd, response)) break;
      }
      ::close(fd);
    });
  }
}

void SocketServer::stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true, std::memory_order_release);
  // Closing the listener makes the blocking accept() fail, ending the
  // accept loop; shutdown() first for platforms where close alone does
  // not wake it.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> handlers;
  {
    const std::lock_guard<std::mutex> lock(handlers_mu_);
    handlers.swap(handlers_);
  }
  for (std::thread& t : handlers)
    if (t.joinable()) t.join();
  ::unlink(socket_path_.c_str());
}

// ---- Client ----------------------------------------------------------------

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Client::connect(const std::string& socket_path, std::string* error) {
  close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) *error = "socket path too long";
    return false;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    if (error != nullptr) *error = std::strerror(errno);
    close();
    return false;
  }
  return true;
}

std::optional<JsonValue> Client::call(const std::string& payload,
                                      std::string* error) {
  if (fd_ < 0) {
    if (error != nullptr) *error = "not connected";
    return std::nullopt;
  }
  if (!write_frame(fd_, payload)) {
    if (error != nullptr) *error = "send failed";
    return std::nullopt;
  }
  std::string response;
  if (!read_frame(fd_, response)) {
    if (error != nullptr) *error = "connection closed by server";
    return std::nullopt;
  }
  std::string parse_error;
  std::optional<JsonValue> v = json_parse(response, &parse_error);
  if (!v && error != nullptr) *error = "bad response: " + parse_error;
  if (v) last_raw_ = std::move(response);
  return v;
}

std::optional<JsonValue> Client::submit(const SubmitArgs& args,
                                        std::string* error) {
  JsonWriter w;
  w.begin_object();
  w.kv("op", "submit");
  w.kv("aiger", args.aiger);
  w.kv("bad", static_cast<std::uint64_t>(args.bad_index));
  if (!args.name.empty()) w.kv("name", args.name);
  w.kv("priority", to_string(args.priority));
  w.kv("deadline_sec", args.deadline_sec);
  w.kv("use_cache", args.use_cache);
  w.kv("wait", args.wait);
  w.key("options");
  write_race_options(w, args.options);
  w.end_object();
  return call(w.str(), error);
}

namespace {

std::string id_request(const char* op, JobId id) {
  JsonWriter w;
  w.begin_object();
  w.kv("op", op);
  w.kv("id", id);
  w.end_object();
  return w.str();
}

}  // namespace

std::optional<JsonValue> Client::poll(JobId id, std::string* error) {
  return call(id_request("poll", id), error);
}

std::optional<JsonValue> Client::events(JobId id, std::uint64_t after_seq,
                                        std::string* error) {
  JsonWriter w;
  w.begin_object();
  w.kv("op", "events");
  w.kv("id", id);
  w.kv("after", after_seq);
  w.end_object();
  return call(w.str(), error);
}

std::optional<JsonValue> Client::cancel(JobId id, std::string* error) {
  return call(id_request("cancel", id), error);
}

std::optional<JsonValue> Client::wait(JobId id, double timeout_sec,
                                      std::string* error) {
  JsonWriter w;
  w.begin_object();
  w.kv("op", "wait");
  w.kv("id", id);
  w.kv("timeout_sec", timeout_sec);
  w.end_object();
  return call(w.str(), error);
}

std::optional<JsonValue> Client::stats(std::string* error) {
  JsonWriter w;
  w.begin_object();
  w.kv("op", "stats");
  w.end_object();
  return call(w.str(), error);
}

std::optional<JsonValue> Client::shutdown(std::string* error) {
  JsonWriter w;
  w.begin_object();
  w.kv("op", "shutdown");
  w.end_object();
  return call(w.str(), error);
}

}  // namespace refbmc::service
