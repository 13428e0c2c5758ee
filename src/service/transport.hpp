// Local transport for the job server: a Unix-domain-socket daemon
// (refbmc-serve) speaking the length-prefixed JSON frames of wire.hpp,
// and a blocking client (refbmc-client and tests).
//
// One request frame in, one response frame out, per round trip; a
// connection carries any number of round trips.  Ops:
//
//   | op       | request fields                          | response        |
//   |----------|-----------------------------------------|-----------------|
//   | submit   | aiger, bad, name, priority,             | accepted, id,   |
//   |          | deadline_sec, use_cache, wait, options  | reason / status |
//   | poll     | id                                      | status          |
//   | events   | id, after                               | events[]        |
//   | cancel   | id                                      | cancelled       |
//   | wait     | id, timeout_sec                         | status          |
//   | stats    | —                                       | counters        |
//   | shutdown | —                                       | ok              |
//
// Responses wrap everything in {"ok": true/false, "error": "..."}; a
// submission the admission layer rejected is ok:true, accepted:false
// with a typed reason — transport errors and rejections are different
// things.
//
// The dispatcher (handle_request) is a pure string -> string function on
// top of JobServer, so protocol tests need no sockets at all.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "service/wire.hpp"

namespace refbmc::service {

/// Decodes one request frame, applies it to `server`, encodes the
/// response frame.  `shutdown_requested`, when non-null, is set by the
/// "shutdown" op (the daemon's exit signal).
std::string handle_request(JobServer& server, const std::string& payload,
                           std::atomic<bool>* shutdown_requested = nullptr);

/// Accept loop over a Unix domain socket, one handler thread per
/// connection.  Owns neither the JobServer nor the socket path file
/// beyond unlinking what it bound.
class SocketServer {
 public:
  SocketServer(JobServer& server, std::string socket_path);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds, listens and starts the accept thread; false + error text on
  /// failure (stale path is unlinked first).  May be called again after
  /// stop().
  bool start(std::string* error = nullptr);

  /// Closes the listener and joins every handler.
  void stop();

  /// Set once a client sent the "shutdown" op (after its response was
  /// written) — the daemon's cue to stop() and exit.
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  const std::string& socket_path() const { return socket_path_; }

 private:
  void accept_main(int listen_fd);

  JobServer& server_;
  const std::string socket_path_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::thread accept_thread_;
  std::mutex handlers_mu_;
  std::vector<std::thread> handlers_;
};

/// Blocking client: one connected socket, call() does one frame round
/// trip.  Convenience wrappers build the request JSON.
class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connect(const std::string& socket_path, std::string* error = nullptr);
  bool connected() const { return fd_ >= 0; }
  void close();

  /// One round trip; nullopt + error text on transport failure or an
  /// unparseable response.
  std::optional<JsonValue> call(const std::string& payload,
                                std::string* error = nullptr);

  /// The raw JSON text of the last successful round trip (scriptable
  /// output without re-encoding the parsed tree).
  const std::string& last_raw() const { return last_raw_; }

  struct SubmitArgs {
    std::string aiger;  // the model, as ASCII AIGER text
    std::size_t bad_index = 0;
    std::string name;
    Priority priority = Priority::Normal;
    double deadline_sec = -1.0;
    bool use_cache = true;
    /// Block server-side until terminal and return the final status in
    /// the submit response (saves the poll loop for one-shot clients).
    bool wait = false;
    api::RaceOptions options;
  };
  std::optional<JsonValue> submit(const SubmitArgs& args,
                                  std::string* error = nullptr);
  std::optional<JsonValue> poll(JobId id, std::string* error = nullptr);
  std::optional<JsonValue> events(JobId id, std::uint64_t after_seq = 0,
                                  std::string* error = nullptr);
  std::optional<JsonValue> cancel(JobId id, std::string* error = nullptr);
  std::optional<JsonValue> wait(JobId id, double timeout_sec = -1.0,
                                std::string* error = nullptr);
  std::optional<JsonValue> stats(std::string* error = nullptr);
  std::optional<JsonValue> shutdown(std::string* error = nullptr);

 private:
  int fd_ = -1;
  std::string last_raw_;
};

}  // namespace refbmc::service
