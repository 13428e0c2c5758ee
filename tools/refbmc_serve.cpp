// refbmc-serve — the BMC daemon: a service::JobServer behind a Unix
// domain socket.
//
//   $ ./refbmc-serve --socket /tmp/refbmc.sock [--workers N]
//                    [--queue-cap N] [--cache-cap N]
//                    [--default-deadline SEC] [--metrics FILE]
//
// Runs until a client sends the "shutdown" op (refbmc-client shutdown)
// or the process receives SIGINT/SIGTERM; either way the daemon stops
// accepting, cancels in-flight races cooperatively and exits cleanly.
// --metrics FILE writes the server-side counters (queue depth, admission
// rejects, cache hit rate, deadline evictions, plus every solver-level
// metric) on exit.
#include <csignal>
#include <cstdio>
#include <exception>
#include <thread>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "service/transport.hpp"
#include "util/options.hpp"

namespace {

std::sig_atomic_t volatile g_signalled = 0;
void on_signal(int) { g_signalled = 1; }

int run(int argc, char** argv) {
  using namespace refbmc;

  const Options opts = Options::parse(argc, argv);
  const std::string socket_path = opts.get("socket", "/tmp/refbmc.sock");
  const std::string metrics_file = opts.get("metrics");

  service::ServerConfig cfg;
  cfg.workers = opts.get_int("workers", 2);
  cfg.queue_capacity =
      static_cast<std::size_t>(opts.get_int("queue-cap", 64));
  cfg.cache_capacity =
      static_cast<std::size_t>(opts.get_int("cache-cap", 128));
  cfg.default_deadline_sec = opts.get_double("default-deadline", -1.0);
  if (cfg.workers < 1) {
    std::fprintf(stderr, "refbmc-serve: --workers must be >= 1\n");
    return 2;
  }

  if (!metrics_file.empty()) obs::metrics_enable(true);

  service::JobServer server(cfg);
  service::SocketServer transport(server, socket_path);
  std::string error;
  if (!transport.start(&error)) {
    std::fprintf(stderr, "refbmc-serve: cannot listen on %s: %s\n",
                 socket_path.c_str(), error.c_str());
    return 1;
  }
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::printf("refbmc-serve: listening on %s (%d workers, queue %zu, "
              "cache %zu)\n",
              socket_path.c_str(), cfg.workers, cfg.queue_capacity,
              cfg.cache_capacity);
  std::fflush(stdout);

  while (!transport.shutdown_requested() && g_signalled == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::printf("refbmc-serve: shutting down\n");
  transport.stop();
  server.shutdown(/*cancel_running=*/true);

  const service::JobServer::Stats s = server.stats();
  std::printf("refbmc-serve: %llu submitted, %llu completed, %llu cache "
              "hits, %llu rejected, %llu deadline evictions\n",
              static_cast<unsigned long long>(s.submitted),
              static_cast<unsigned long long>(s.completed),
              static_cast<unsigned long long>(s.cache_hits),
              static_cast<unsigned long long>(s.rejected),
              static_cast<unsigned long long>(s.deadline_evictions));
  if (!metrics_file.empty()) {
    obs::write_metrics_file(metrics_file, obs::metrics());
    std::printf("metrics -> %s\n", metrics_file.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "refbmc-serve: %s\n", e.what());
    return 2;
  }
}
