// Tests for the mediator daemon (src/server/): the frame codec (including
// fuzz against truncated/oversized/garbage input), the JSON module, the
// request/reply protocol over real sockets, streamed PARTIAL/COMPLETE
// pushes for §4 partial answers, per-connection backpressure,
// cancel-on-disconnect, and a 16-client mixed-traffic storm. The whole
// binary carries the `concurrency` ctest label (and runs under the
// DISCO_SANITIZE=thread build): the IO thread, the session workers and
// the exec pool all interleave here.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/disco.hpp"
#include "server/client.hpp"
#include "server/json.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"

namespace disco {
namespace {

using server::Frame;
using server::FrameDecoder;
using server::FrameType;
using server::Response;

// ------------------------------------------------------------- JSON module ---

TEST(ServerJsonTest, ParsesScalarsArraysAndObjects) {
  auto v = server::json::parse(
      R"({"a":1,"b":-2.5,"c":"x\"y\\z","d":[true,false,null],"e":{"f":18446744073709551615}})");
  EXPECT_EQ(v.at("a").as_int64(), 1);
  EXPECT_DOUBLE_EQ(v.at("b").as_double(), -2.5);
  EXPECT_EQ(v.at("c").as_string(), "x\"y\\z");
  ASSERT_EQ(v.at("d").items().size(), 3u);
  EXPECT_TRUE(v.at("d").items()[0].as_bool());
  EXPECT_TRUE(v.at("d").items()[2].is_null());
  // 2^64-1 does not fit int64; it survives as a (lossy) double rather
  // than throwing at parse time.
  EXPECT_GT(v.at("e").at("f").as_double(), 1e19);
}

TEST(ServerJsonTest, DumpParseRoundTripsHostileStrings) {
  const std::string hostile = "quote\" back\\slash \n tab\t bell\x07 end";
  auto v = server::json::Value::object(
      {{hostile, server::json::Value::string(hostile)}});
  auto back = server::json::parse(v.dump());
  ASSERT_EQ(back.members().size(), 1u);
  EXPECT_EQ(back.members()[0].first, hostile);
  EXPECT_EQ(back.members()[0].second.as_string(), hostile);
}

TEST(ServerJsonTest, RejectsMalformedDocuments) {
  using server::json::JsonError;
  using server::json::parse;
  EXPECT_THROW(parse(""), JsonError);
  EXPECT_THROW(parse("{"), JsonError);
  EXPECT_THROW(parse("[1,]"), JsonError);
  EXPECT_THROW(parse("{\"a\":1} trailing"), JsonError);
  EXPECT_THROW(parse("\"unterminated"), JsonError);
  EXPECT_THROW(parse("nul"), JsonError);
  EXPECT_THROW(parse("{\"a\"}"), JsonError);
  // Depth bomb: parser must refuse, not overflow the stack.
  EXPECT_THROW(parse(std::string(10000, '[')), JsonError);
}

TEST(ServerJsonTest, AccessorsThrowTypedOnKindMismatch) {
  auto v = server::json::parse(R"({"s":"x","n":3})");
  EXPECT_THROW(v.at("s").as_int64(), server::json::JsonError);
  EXPECT_THROW(v.at("n").as_string(), server::json::JsonError);
  EXPECT_THROW(v.at("missing"), server::json::JsonError);
  EXPECT_EQ(v.find("missing"), nullptr);
}

// -------------------------------------------------------------- frame codec ---

TEST(FrameCodecTest, RoundTripsThroughArbitrarySplits) {
  const std::string frames =
      server::encode_frame(FrameType::kSubmit, R"({"oql":"select 1"})") +
      server::encode_frame(FrameType::kStats, "") +
      server::encode_frame(FrameType::kPartial, R"({"id":7})");
  // Feed in every possible two-chunk split, plus byte-by-byte.
  for (size_t split = 0; split <= frames.size(); ++split) {
    FrameDecoder decoder;
    decoder.feed(frames.data(), split);
    decoder.feed(frames.data() + split, frames.size() - split);
    Frame f;
    std::string err;
    ASSERT_EQ(decoder.next(&f, &err), FrameDecoder::Status::kFrame);
    EXPECT_EQ(f.type, FrameType::kSubmit);
    EXPECT_EQ(f.payload, R"({"oql":"select 1"})");
    ASSERT_EQ(decoder.next(&f, &err), FrameDecoder::Status::kFrame);
    EXPECT_EQ(f.type, FrameType::kStats);
    EXPECT_TRUE(f.payload.empty());
    ASSERT_EQ(decoder.next(&f, &err), FrameDecoder::Status::kFrame);
    EXPECT_EQ(f.type, FrameType::kPartial);
    EXPECT_EQ(decoder.next(&f, &err), FrameDecoder::Status::kNeedMore);
  }
}

TEST(FrameCodecTest, TruncatedFrameWaitsForMoreBytes) {
  FrameDecoder decoder;
  const std::string frame = server::encode_frame(FrameType::kPoll, "{}");
  decoder.feed(frame.data(), frame.size() - 1);
  Frame f;
  std::string err;
  EXPECT_EQ(decoder.next(&f, &err), FrameDecoder::Status::kNeedMore);
  decoder.feed(frame.data() + frame.size() - 1, 1);
  EXPECT_EQ(decoder.next(&f, &err), FrameDecoder::Status::kFrame);
}

TEST(FrameCodecTest, ZeroAndOversizedLengthsArePoisonous) {
  {
    FrameDecoder decoder;
    decoder.feed(std::string(4, '\0'));  // len == 0
    Frame f;
    std::string err;
    EXPECT_EQ(decoder.next(&f, &err), FrameDecoder::Status::kBad);
    EXPECT_NE(err.find("zero-length"), std::string::npos);
    // Poisoned for good: more bytes do not revive it.
    decoder.feed(server::encode_frame(FrameType::kStats, ""));
    EXPECT_EQ(decoder.next(&f, &err), FrameDecoder::Status::kBad);
  }
  {
    FrameDecoder decoder;
    decoder.feed("\xff\xff\xff\xff", 4);  // 4 GiB length prefix
    Frame f;
    std::string err;
    EXPECT_EQ(decoder.next(&f, &err), FrameDecoder::Status::kBad);
    EXPECT_NE(err.find("exceeds limit"), std::string::npos);
  }
}

TEST(FrameCodecFuzzTest, RandomGarbageNeverCrashesTheDecoder) {
  SplitMix64 rng(20260808);
  for (int round = 0; round < 200; ++round) {
    FrameDecoder decoder;
    const size_t len = 1 + rng.next_in(0, 512);
    std::string junk(len, '\0');
    for (char& c : junk) c = static_cast<char>(rng.next_in(0, 255));
    // Feed in random-sized chunks; drain after each.
    size_t off = 0;
    bool dead = false;
    while (off < junk.size() && !dead) {
      const size_t chunk =
          std::min<size_t>(junk.size() - off, 1 + rng.next_in(0, 64));
      decoder.feed(junk.data() + off, chunk);
      off += chunk;
      Frame f;
      std::string err;
      for (;;) {
        const auto status = decoder.next(&f, &err);
        if (status == FrameDecoder::Status::kFrame) continue;
        if (status == FrameDecoder::Status::kBad) dead = true;
        break;
      }
    }
    // Either outcome is fine; crashing or unbounded allocation is not.
    EXPECT_LE(decoder.buffered(), junk.size());
  }
}

// --------------------------------------------------------------- federation ---

/// The paper's running two-source person federation behind a live
/// Server: wall-clock exec, breakers + prober, multi-worker sessions.
struct ServerWorld {
  explicit ServerWorld(server::ServerOptions sopts = {},
                       bool enable_cache = false) {
    Mediator::Options options;
    options.exec.workers = 2;
    options.exec.latency_scale = 0.001;  // 10ms sim -> 10us wall
    options.exec.call_deadline_s = 5.0;
    options.health.enabled = true;
    options.health.failure_threshold = 2;
    options.health.open_cooldown_s = 5.0;
    options.health.probe_interval_s = 2.0;
    options.session.workers = 2;
    options.session.retry_interval_s = 0.01;
    options.cache.enabled = enable_cache;
    mediator = std::make_unique<Mediator>(options);

    auto& p0 = db0.create_table("person0",
                                {{"id", memdb::ColumnType::Int},
                                 {"name", memdb::ColumnType::Text},
                                 {"salary", memdb::ColumnType::Int}});
    p0.insert({Value::integer(1), Value::string("Mary"), Value::integer(200)});
    auto& p1 = db1.create_table("person1",
                                {{"id", memdb::ColumnType::Int},
                                 {"name", memdb::ColumnType::Text},
                                 {"salary", memdb::ColumnType::Int}});
    p1.insert({Value::integer(2), Value::string("Sam"), Value::integer(50)});

    auto wrapper = std::make_shared<wrapper::MemDbWrapper>();
    wrapper->attach_database("r0", &db0);
    wrapper->attach_database("r1", &db1);
    mediator->register_wrapper("w0", std::move(wrapper));
    mediator->register_repository(
        catalog::Repository{"r0", "rodin", "db", "123.45.6.7"},
        net::LatencyModel{0.010, 0.0001, 0});
    mediator->register_repository(
        catalog::Repository{"r1", "ada", "db", "123.45.6.8"},
        net::LatencyModel{0.010, 0.0001, 0});
    mediator->execute_odl(R"(
      interface Person (extent person) {
        attribute Long id;
        attribute String name;
        attribute Short salary; };
      extent person0 of Person wrapper w0 repository r0;
      extent person1 of Person wrapper w0 repository r1;
    )");

    srv = std::make_unique<server::Server>(*mediator, sopts);
    srv->start();
  }

  server::Client connect() {
    return server::Client("127.0.0.1", srv->port());
  }

  /// Trips r0's breaker: dark + enough failures to open the circuit.
  void darken_r0() {
    mediator->network().set_availability("r0",
                                         net::Availability::always_down());
    for (int i = 0; i < 2; ++i) (void)mediator->query(kQuery);
    ASSERT_EQ(mediator->health_tracker().state("r0"),
              session::CircuitState::Open);
  }
  void recover_r0() {
    mediator->network().set_availability("r0", net::Availability::always_up());
  }

  static constexpr const char* kQuery = "select x.name from x in person";

  memdb::Database db0{"db0"}, db1{"db1"};
  std::unique_ptr<Mediator> mediator;
  std::unique_ptr<server::Server> srv;
};

// ----------------------------------------------------------- request/reply ---

TEST(ServerTest, SubmitPollRoundTripMatchesInProcessAnswer) {
  ServerWorld world;
  server::Client client = world.connect();

  const uint64_t id = client.submit_id(ServerWorld::kQuery);
  Response reply;
  for (int i = 0; i < 2000; ++i) {
    reply = client.poll(id);
    ASSERT_EQ(reply.type, FrameType::kAnswer);
    if (reply.payload.at("complete").as_bool()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(reply.payload.at("complete").as_bool());
  EXPECT_EQ(reply.payload.at("state").as_string(), "complete");
  const auto& rows = reply.payload.at("rows").items();
  ASSERT_EQ(rows.size(), 2u);
  std::vector<std::string> names{rows[0].as_string(), rows[1].as_string()};
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"Mary", "Sam"}));
  EXPECT_TRUE(reply.payload.at("residuals").items().empty());

  // release drops the handle from the registry; a later poll is typed.
  Response ok = client.cancel(id, /*release_only=*/true);
  EXPECT_EQ(ok.type, FrameType::kOk);
  Response gone = client.poll(id);
  ASSERT_EQ(gone.type, FrameType::kError);
  EXPECT_EQ(gone.payload.at("code").as_string(), "unknown_query");
}

TEST(ServerTest, ExplainAndStatsAreStructured) {
  ServerWorld world;
  server::Client client = world.connect();

  Response explain = client.explain(ServerWorld::kQuery);
  ASSERT_EQ(explain.type, FrameType::kExplainResult);
  EXPECT_NE(explain.payload.at("text").as_string().find("person"),
            std::string::npos);

  // An unparsable query is a typed error, not a dropped connection.
  Response bad = client.explain("select select select");
  ASSERT_EQ(bad.type, FrameType::kError);
  EXPECT_EQ(bad.payload.at("code").as_string(), "query_error");

  Response stats = client.stats();
  ASSERT_EQ(stats.type, FrameType::kStatsResult);
  EXPECT_GE(stats.payload.at("server").at("connections").as_uint64(), 1u);
  // The embedded obs snapshot is parsed server-side from its own JSON
  // emitter — reaching here at all asserts the escaping holds.
  EXPECT_FALSE(stats.payload.at("obs").at("counters").members().empty());
  EXPECT_FALSE(stats.payload.at("cache").at("enabled").as_bool());
}

TEST(ServerTest, MalformedInputYieldsTypedErrorsAndConnectionSurvives) {
  ServerWorld world;
  server::Client client = world.connect();

  // Unknown type byte: typed error, connection stays usable.
  client.send_raw(server::encode_frame(static_cast<FrameType>(99), "{}"));
  auto f = client.recv_frame(5.0);
  ASSERT_TRUE(f.has_value());
  ASSERT_EQ(f->type, FrameType::kError);
  EXPECT_EQ(server::json::parse(f->payload).at("code").as_string(),
            "unknown_type");

  // Invalid JSON payload: same.
  client.send_raw(server::encode_frame(FrameType::kSubmit, "{\"oql\":"));
  f = client.recv_frame(5.0);
  ASSERT_TRUE(f.has_value());
  ASSERT_EQ(f->type, FrameType::kError);
  EXPECT_EQ(server::json::parse(f->payload).at("code").as_string(),
            "bad_json");

  // Valid JSON but missing members: bad_request.
  client.send_raw(server::encode_frame(FrameType::kSubmit, "{}"));
  f = client.recv_frame(5.0);
  ASSERT_TRUE(f.has_value());
  ASSERT_EQ(f->type, FrameType::kError);
  EXPECT_EQ(server::json::parse(f->payload).at("code").as_string(),
            "bad_request");

  // The connection survived all three: a real request still works.
  EXPECT_EQ(client.stats().type, FrameType::kStatsResult);
}

TEST(ServerTest, OversizedLengthPrefixGetsErrorThenClose) {
  ServerWorld world;
  server::Client client = world.connect();
  client.send_raw(std::string("\xff\xff\xff\xff", 4));
  auto f = client.recv_frame(5.0);
  ASSERT_TRUE(f.has_value());
  ASSERT_EQ(f->type, FrameType::kError);
  EXPECT_EQ(server::json::parse(f->payload).at("code").as_string(),
            "bad_frame");
  // The stream cannot resync; the server closes after the error.
  EXPECT_THROW(client.recv_frame(5.0), ExecutionError);

  // The *server* survives: a new connection works.
  server::Client again = world.connect();
  EXPECT_EQ(again.stats().type, FrameType::kStatsResult);
}

TEST(ServerFuzzTest, GarbageBytesOverTheSocketNeverKillTheServer) {
  ServerWorld world;
  SplitMix64 rng(42);
  for (int round = 0; round < 8; ++round) {
    server::Client client = world.connect();
    std::string junk(1 + rng.next_in(0, 256), '\0');
    for (char& c : junk) c = static_cast<char>(rng.next_in(0, 255));
    client.send_raw(junk);
    // Whatever happens to this connection, the server keeps serving.
    try {
      (void)client.recv_frame(0.2);
    } catch (const ExecutionError&) {
    }
  }
  server::Client survivor = world.connect();
  EXPECT_EQ(survivor.stats().type, FrameType::kStatsResult);
}

// ----------------------------------------------- §4 streaming: the tentpole ---

TEST(ServerAcceptanceTest, SubscribedQueryStreamsPartialThenPushedComplete) {
  ServerWorld world;
  world.darken_r0();

  server::Client client = world.connect();
  const uint64_t id =
      client.submit_id(ServerWorld::kQuery, /*deadline_s=*/
                       std::numeric_limits<double>::infinity(),
                       /*subscribe=*/true);

  // The dark source turns the first run into a §4 partial answer; the
  // server pushes it as a PARTIAL frame with the residual attached.
  auto partial = client.wait_event(id, {FrameType::kPartial}, 30.0);
  ASSERT_TRUE(partial.has_value());
  EXPECT_FALSE(partial->payload.at("complete").as_bool());
  EXPECT_FALSE(partial->payload.at("residuals").items().empty());

  // Source recovers -> prober closes the circuit -> the session layer
  // resubmits the residual -> the SAME query id completes by push.
  world.recover_r0();
  auto complete = client.wait_event(id, {FrameType::kComplete}, 30.0);
  ASSERT_TRUE(complete.has_value());
  EXPECT_TRUE(complete->payload.at("complete").as_bool());
  const auto& rows = complete->payload.at("rows").items();
  ASSERT_EQ(rows.size(), 2u);
  std::vector<std::string> names{rows[0].as_string(), rows[1].as_string()};
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"Mary", "Sam"}));
  EXPECT_TRUE(complete->payload.at("residuals").items().empty());
}

TEST(ServerTest, LateSubscribeOnPendingQueryStillSeesThePartial) {
  ServerWorld world;
  world.darken_r0();
  server::Client client = world.connect();

  // Submit WITHOUT subscribe; wait until the partial run happened.
  const uint64_t id = client.submit_id(ServerWorld::kQuery);
  for (int i = 0; i < 2000; ++i) {
    Response r = client.poll(id);
    if (!r.payload.at("residuals").items().empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Late subscription: on_progress fires inline with the current
  // snapshot, so the subscriber still gets a PARTIAL push.
  ASSERT_EQ(client.subscribe(id).type, FrameType::kOk);
  auto partial = client.wait_event(id, {FrameType::kPartial}, 30.0);
  ASSERT_TRUE(partial.has_value());
  EXPECT_FALSE(partial->payload.at("complete").as_bool());

  world.recover_r0();
  auto complete = client.wait_event(id, {FrameType::kComplete}, 30.0);
  ASSERT_TRUE(complete.has_value());
}

TEST(ServerTest, FailedSessionPushesQueryFailed) {
  server::ServerOptions sopts;
  ServerWorld world(sopts);
  // Poison the session layer: cap resubmissions so a permanently dark
  // source fails the session instead of retrying forever.
  // (ServerWorld has no such knob; emulate by cancelling via failure —
  // instead, use a query that throws at optimize time *inside the
  // session worker*: unknown extents throw on the initial run.)
  server::Client client = world.connect();
  const uint64_t id = client.submit_id("select x.a from x in nosuchextent",
                                       std::numeric_limits<double>::infinity(),
                                       /*subscribe=*/true);
  auto failed = client.wait_event(id, {FrameType::kQueryFailed}, 30.0);
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->payload.at("state").as_string(), "failed");
  // POLL reports the failure as data, not a dropped connection.
  Response reply = client.poll(id);
  ASSERT_EQ(reply.type, FrameType::kAnswer);
  EXPECT_EQ(reply.payload.at("state").as_string(), "failed");
  EXPECT_NE(reply.payload.at("error").as_string().find("nosuchextent"),
            std::string::npos);
}

TEST(ServerTest, QueriesThatCrashedTheDaemonEndInTypedFailures) {
  ServerWorld world;
  auto repeat = [](const std::string& unit, size_t count) {
    std::string out;
    for (size_t i = 0; i < count; ++i) out += unit;
    return out;
  };
  // int64 overflow (INT64_MIN / -1 trapped with SIGFPE) and nesting that
  // overflowed the parser's or a later stage's stack.
  const std::vector<std::string> texts = {
      "(-9223372036854775807 - 1) / -1",
      "(-9223372036854775807 - 1) mod -1",
      "9223372036854775807 + 1",
      repeat("(", 20000) + "1" + repeat(")", 20000),
      repeat("not ", 100000) + "true",
      repeat("- ", 100000) + "1",
      repeat("true or ", 19999) + "true",
  };
  {
    server::Client client = world.connect();
    for (const std::string& text : texts) {
      const std::string head = text.substr(0, 40);
      Response reply = client.submit(
          text, std::numeric_limits<double>::infinity(), /*subscribe=*/true);
      if (reply.type == FrameType::kError) {
        EXPECT_EQ(reply.payload.at("code").as_string(), "query_error")
            << head;
        continue;
      }
      ASSERT_EQ(reply.type, FrameType::kSubmitted) << head;
      const uint64_t id = reply.payload.at("id").as_uint64();
      auto outcome = client.wait_event(
          id, {FrameType::kQueryFailed, FrameType::kComplete}, 30.0);
      ASSERT_TRUE(outcome.has_value()) << head;
      EXPECT_EQ(outcome->type, FrameType::kQueryFailed) << head;
    }
  }
  // The daemon keeps serving: an ordinary query completes on a new
  // connection.
  server::Client client = world.connect();
  const uint64_t id = client.submit_id(
      ServerWorld::kQuery, std::numeric_limits<double>::infinity(),
      /*subscribe=*/true);
  auto complete = client.wait_event(id, {FrameType::kComplete}, 30.0);
  ASSERT_TRUE(complete.has_value());
  EXPECT_EQ(complete->payload.at("rows").items().size(), 2u);
}

// ------------------------------------------------------------- backpressure ---

TEST(ServerTest, TooManyInflightSubmitsShedIntoBusy) {
  server::ServerOptions sopts;
  sopts.backpressure.max_inflight_per_conn = 2;
  ServerWorld world(sopts);
  world.darken_r0();  // sessions stay Pending on their residuals

  server::Client client = world.connect();
  const uint64_t a = client.submit_id(ServerWorld::kQuery);
  const uint64_t b = client.submit_id(ServerWorld::kQuery);
  (void)a;
  (void)b;
  Response shed = client.submit(ServerWorld::kQuery);
  ASSERT_EQ(shed.type, FrameType::kBusy);
  EXPECT_EQ(shed.payload.at("reason").as_string(), "inflight");
  EXPECT_EQ(shed.payload.at("limit").as_uint64(), 2u);
  EXPECT_GE(world.srv->backpressure_stats().busy_inflight, 1u);

  // Settle the two pending sessions; admission reopens.
  world.recover_r0();
  for (int i = 0; i < 5000; ++i) {
    Response r = client.poll(a);
    if (r.payload.at("complete").as_bool()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 0; i < 5000; ++i) {
    Response r = client.poll(b);
    if (r.payload.at("complete").as_bool()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Response admitted = client.submit(ServerWorld::kQuery);
  EXPECT_EQ(admitted.type, FrameType::kSubmitted);
}

// ------------------------------------------------------ cancel & disconnect ---

TEST(ServerTest, CancelDropsThePendingSession) {
  ServerWorld world;
  world.darken_r0();
  server::Client client = world.connect();
  const uint64_t id = client.submit_id(ServerWorld::kQuery);
  ASSERT_EQ(client.cancel(id).type, FrameType::kOk);
  // Cancelled AND released: the registry no longer knows the id.
  Response gone = client.poll(id);
  ASSERT_EQ(gone.type, FrameType::kError);
  EXPECT_EQ(gone.payload.at("code").as_string(), "unknown_query");
  EXPECT_EQ(world.mediator->live_handles(), 0u);
  // The session layer saw the cancellation.
  for (int i = 0; i < 2000 && world.mediator->session_stats().cancelled == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(world.mediator->session_stats().cancelled, 1u);
}

TEST(ServerTest, DisconnectCancelsEverythingTheConnectionOwned) {
  ServerWorld world;
  world.darken_r0();
  {
    server::Client client = world.connect();
    (void)client.submit_id(ServerWorld::kQuery);
    (void)client.submit_id(ServerWorld::kQuery);
    EXPECT_EQ(world.mediator->live_handles(), 2u);
  }  // ~Client closes the socket
  // The IO thread notices the disconnect and cancels the owned queries:
  // no leaked registry entries, no pending resubmissions.
  for (int i = 0; i < 5000 && world.mediator->live_handles() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(world.mediator->live_handles(), 0u);
  for (int i = 0; i < 5000 && world.mediator->session_stats().cancelled < 2;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(world.mediator->session_stats().cancelled, 2u);
}

// -------------------------------------------- obs / cache JSON round-trips ---

TEST(ServerTest, ObsSnapshotJsonSurvivesHostileRepositoryNames) {
  ServerWorld world;
  // A repository name with quotes, backslashes and control bytes lands
  // in obs_snapshot() counter keys; the emitted JSON must stay valid.
  const std::string hostile = "r\"evil\\path\n2";
  world.mediator->health_tracker().on_outcome(hostile, false, 0.5);
  const std::string dumped = world.mediator->obs_snapshot().to_json();
  server::json::Value parsed;
  ASSERT_NO_THROW(parsed = server::json::parse(dumped)) << dumped;
  bool found = false;
  for (const auto& [key, value] : parsed.at("counters").members()) {
    if (key.find(hostile) != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);

  // And over the wire: STATS embeds the snapshot by parsing it.
  server::Client client = world.connect();
  Response stats = client.stats();
  ASSERT_EQ(stats.type, FrameType::kStatsResult);
}

TEST(ServerTest, CacheStatsJsonEscapesRemoteAlgebraText) {
  ServerWorld world({}, /*enable_cache=*/true);
  // The shipped remote expression contains a string literal with quotes
  // — exactly the text a naive emitter would corrupt.
  (void)world.mediator->query(
      "select x.salary from x in person where x.name = \"Mary\"");
  const std::string dumped = world.mediator->cache_stats_json();
  server::json::Value parsed;
  ASSERT_NO_THROW(parsed = server::json::parse(dumped)) << dumped;
  EXPECT_TRUE(parsed.at("enabled").as_bool());
  bool quoted_remote = false;
  for (const auto& entry : parsed.at("entries").items()) {
    if (entry.at("remote").as_string().find('"') != std::string::npos) {
      quoted_remote = true;
    }
  }
  EXPECT_TRUE(quoted_remote) << dumped;
}

// ------------------------------------------------------------ 16-client storm ---

TEST(ServerStormTest, SixteenClientsMixedTrafficStaysCoherent) {
  server::ServerOptions sopts;
  ServerWorld world(sopts);
  constexpr int kClients = 16;
  constexpr int kOpsPerClient = 25;
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> busy{0};
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&world, &completed, &busy, &failures, t] {
      try {
        server::Client client = world.connect();
        SplitMix64 rng(1000 + static_cast<uint64_t>(t));
        std::vector<uint64_t> ids;
        for (int op = 0; op < kOpsPerClient; ++op) {
          const uint64_t dice = rng.next_in(0, 9);
          if (dice < 5 || ids.empty()) {
            Response r = client.submit(ServerWorld::kQuery,
                                       std::numeric_limits<double>::infinity(),
                                       /*subscribe=*/(dice & 1) != 0);
            if (r.type == FrameType::kSubmitted) {
              ids.push_back(r.payload.at("id").as_uint64());
            } else if (r.type == FrameType::kBusy) {
              busy.fetch_add(1);
            } else {
              failures.fetch_add(1);
            }
          } else if (dice < 8) {
            Response r = client.poll(ids[rng.next_in(0, ids.size() - 1)]);
            if (r.type == FrameType::kAnswer &&
                r.payload.at("complete").as_bool()) {
              completed.fetch_add(1);
            }
          } else if (dice == 8) {
            const size_t pick = rng.next_in(0, ids.size() - 1);
            (void)client.cancel(ids[pick]);
            ids.erase(ids.begin() + static_cast<ptrdiff_t>(pick));
          } else {
            if (client.stats().type != FrameType::kStatsResult) {
              failures.fetch_add(1);
            }
          }
          // Drain any pushes that piled up, so the buffer stays bounded.
          while (client.next_event(0.0).has_value()) {
          }
        }
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  // Every connection is gone; every owned pending query got cancelled.
  // The IO thread may still have a close pending when the clients return,
  // so the connection counts are polled within the same bound.
  auto settled = [&world] {
    const auto snap = world.mediator->obs_snapshot();
    return world.mediator->live_handles() == 0 &&
           world.srv->connections() == 0 &&
           snap.counter("server.connections.accepted") ==
               snap.counter("server.connections.closed");
  };
  for (int i = 0; i < 5000 && !settled(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(world.mediator->live_handles(), 0u);
  EXPECT_EQ(world.srv->connections(), 0u);
  const auto snap = world.mediator->obs_snapshot();
  EXPECT_GE(snap.counter("server.connections.accepted"),
            static_cast<uint64_t>(kClients));
  EXPECT_EQ(snap.counter("server.connections.accepted"),
            snap.counter("server.connections.closed"));
}

}  // namespace
}  // namespace disco
