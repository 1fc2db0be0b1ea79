// disco_serverd — the mediator daemon.
//
//   build/src/server/disco_serverd [--port N] [--host A] [--sources N]
//                                  [--rows N] [--workers N] [--exec N]
//
// Stands up the paper's running person federation (N in-memory MiniSQL
// sources behind one wrapper), wraps the mediator in a Server and
// serves the frame protocol until SIGINT/SIGTERM. The daemon enables
// the full production stack: wall-clock executor, health tracking with
// circuit breakers, result cache, per-source admission control and a
// multi-worker session layer — the same configuration bench_server
// measures.
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <thread>

#include "core/disco.hpp"
#include "server/server.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

uint64_t arg_u64(int argc, char** argv, const char* name, uint64_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      return static_cast<uint64_t>(std::strtoull(argv[i + 1], nullptr, 10));
    }
  }
  return fallback;
}

const char* arg_str(int argc, char** argv, const char* name,
                    const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace disco;

  const uint16_t port =
      static_cast<uint16_t>(arg_u64(argc, argv, "--port", 7117));
  const std::string host = arg_str(argc, argv, "--host", "127.0.0.1");
  const size_t n_sources = arg_u64(argc, argv, "--sources", 4);
  const size_t rows = arg_u64(argc, argv, "--rows", 64);
  const size_t session_workers = arg_u64(argc, argv, "--workers", 4);
  const size_t exec_workers = arg_u64(argc, argv, "--exec", 4);

  Mediator::Options options;
  options.exec.workers = exec_workers;
  options.exec.latency_scale = 0.01;
  options.exec.call_deadline_s = 5.0;
  options.health.enabled = true;
  options.health.failure_threshold = 2;
  options.health.open_cooldown_s = 5.0;
  options.health.probe_interval_s = 2.0;
  options.session.workers = session_workers;
  options.session.retry_interval_s = 0.05;
  options.cache.enabled = true;
  options.sched.enabled = true;
  Mediator mediator(options);

  // The paper's person schema scaled to --sources repositories.
  mediator.execute_odl(R"(
    interface Person (extent person) {
      attribute Long id;
      attribute String name;
      attribute Short salary; };
  )");
  std::vector<std::unique_ptr<memdb::Database>> databases;
  auto wrapper = std::make_shared<wrapper::MemDbWrapper>();
  mediator.register_wrapper("w0", wrapper);
  for (size_t s = 0; s < n_sources; ++s) {
    auto db = std::make_unique<memdb::Database>("db" + std::to_string(s));
    const std::string extent = "person" + std::to_string(s);
    auto& table =
        db->create_table(extent, {{"id", memdb::ColumnType::Int},
                                  {"name", memdb::ColumnType::Text},
                                  {"salary", memdb::ColumnType::Int}});
    for (size_t r = 0; r < rows; ++r) {
      table.insert({Value::integer(static_cast<int64_t>(r)),
                    Value::string("p" + std::to_string(s) + "_" +
                                  std::to_string(r)),
                    Value::integer(static_cast<int64_t>((r * 37) % 1000))});
    }
    const std::string repo = "r" + std::to_string(s);
    wrapper->attach_database(repo, db.get());
    databases.push_back(std::move(db));
    mediator.register_repository(
        catalog::Repository{repo, "host" + std::to_string(s), "db",
                            "10.0.0." + std::to_string(s)},
        net::LatencyModel{0.010, 0.0001, 0});
    mediator.execute_odl("extent " + extent +
                         " of Person wrapper w0 repository " + repo + ";");
  }

  server::ServerOptions sopts;
  sopts.host = host;
  sopts.port = port;
  server::Server srv(mediator, sopts);
  srv.start();
  std::cout << "disco_serverd listening on " << srv.host() << ":"
            << srv.port() << " (" << n_sources << " sources, "
            << session_workers << " session workers)" << std::endl;

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::cout << "disco_serverd: shutting down" << std::endl;
  srv.stop();
  return 0;
}
