// The serving wire: JSON parsing, frame framing, the options round trip
// and the socket-free request dispatcher.
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <functional>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "model/aiger.hpp"
#include "model/benchgen.hpp"
#include "service/transport.hpp"
#include "service/wire.hpp"

namespace refbmc::service {
namespace {

JsonValue parse_ok(const std::string& text) {
  std::string error;
  const auto v = json_parse(text, &error);
  EXPECT_TRUE(v.has_value()) << error << " in: " << text;
  return v.value_or(JsonValue::null());
}

TEST(WireJsonTest, ParsesScalarsArraysAndNesting) {
  const JsonValue v = parse_ok(
      R"({"n": -3.5, "i": 42, "t": true, "f": false, "z": null,)"
      R"( "s": "heAllo\n", "a": [1, [2, 3], {"k": "v"}]})");
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.get_number("n"), -3.5);
  EXPECT_EQ(v.get_int("i"), 42);
  EXPECT_TRUE(v.get_bool("t"));
  EXPECT_FALSE(v.get_bool("f", true));
  ASSERT_NE(v.find("z"), nullptr);
  EXPECT_TRUE(v.find("z")->is_null());
  EXPECT_EQ(v.get_string("s"), "heAllo\n");
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_DOUBLE_EQ(a->items()[0].as_number(), 1.0);
  ASSERT_TRUE(a->items()[1].is_array());
  EXPECT_EQ(a->items()[2].get_string("k"), "v");
}

TEST(WireJsonTest, SixtyFourBitValuesTravelAsStrings) {
  // Doubles hold 53 bits; hashes and ids ride in strings.
  const JsonValue v =
      parse_ok(R"({"id": "18446744073709551615", "n": 7})");
  EXPECT_EQ(v.get_uint64("id"), 18446744073709551615ull);
  EXPECT_EQ(v.get_uint64("n"), 7u);        // plain numbers still work
  EXPECT_EQ(v.get_uint64("missing", 3u), 3u);
}

TEST(WireJsonTest, DuplicateKeysKeepTheLast) {
  EXPECT_EQ(parse_ok(R"({"k": 1, "k": 2})").get_int("k"), 2);
}

TEST(WireJsonTest, RejectsMalformedDocuments) {
  std::string error;
  for (const char* bad :
       {"", "{", R"({"a":})", "[1,]", R"({"a":1} trailing)", "tru",
        R"("unterminated)"}) {
    error.clear();
    EXPECT_FALSE(json_parse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(WireFramingTest, RoundTripsOverASocketPair) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  const std::string payloads[] = {"", "{}", std::string(100000, 'x'),
                                  std::string("\x00\x01\xff binary", 10)};
  for (const std::string& sent : payloads) {
    // Writer in a thread so a large frame cannot deadlock the pair.
    std::thread writer([&] { EXPECT_TRUE(write_frame(fds[0], sent)); });
    std::string received;
    EXPECT_TRUE(read_frame(fds[1], received));
    writer.join();
    EXPECT_EQ(received, sent);
  }

  ::close(fds[0]);  // EOF is a clean false, not an error
  std::string leftover;
  EXPECT_FALSE(read_frame(fds[1], leftover));
  ::close(fds[1]);
}

TEST(WireFramingTest, OversizedLengthPrefixIsAProtocolError) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // A hostile 4 GiB length header must be refused before any allocation
  // of that size — admission control, not OOM.
  const std::uint32_t huge = 0xffffffffu;
  unsigned char header[4];
  std::memcpy(header, &huge, 4);
  ASSERT_EQ(::write(fds[0], header, 4), 4);
  std::string payload;
  EXPECT_FALSE(read_frame(fds[1], payload));
  // And the cap is tunable for tests and small deployments.
  std::thread writer([&] { write_frame(fds[0], std::string(64, 'y')); });
  std::string small;
  EXPECT_FALSE(read_frame(fds[1], small, /*max_bytes=*/16));
  writer.join();
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(WireOptionsTest, RaceOptionsSurviveTheRoundTrip) {
  api::RaceOptions sent;
  sent.policies({"static", "evsids"})
      .max_depth(33)
      .budget_sec(2.5)
      .incremental(true)
      .simplify(false)
      .bad_mode(bmc::BadMode::Any)
      .glue_lbd(3)
      .tier_lbd(9)
      .share(false)
      .share_lbd(6)
      .share_size(4)
      .share_cap(99)
      .core_weighting("exp-decay")
      .preprocess(false)
      .bve_budget(5);

  JsonWriter w;
  write_race_options(w, sent);
  const api::RaceOptions received = parse_race_options(parse_ok(w.str()));

  // Fingerprint equality == every behaviour-affecting knob survived.
  EXPECT_EQ(api::config_fingerprint(received), api::config_fingerprint(sent));
  EXPECT_EQ(received.bad_mode(), bmc::BadMode::Any);
}

TEST(WireOptionsTest, DefaultsRoundTripAndAbsentMembersKeepDefaults) {
  const api::RaceOptions defaults;
  JsonWriter w;
  write_race_options(w, defaults);
  EXPECT_EQ(api::config_fingerprint(parse_race_options(parse_ok(w.str()))),
            api::config_fingerprint(defaults));
  // An empty object (an old client) decodes to pure defaults.
  EXPECT_EQ(api::config_fingerprint(parse_race_options(parse_ok("{}"))),
            api::config_fingerprint(defaults));
  // So do the retired "decision", "assumption_savepoint", "threads",
  // "seed" and "share_rank" members, whatever their values.
  EXPECT_EQ(api::config_fingerprint(parse_race_options(parse_ok(
                R"({"decision": "evsids", "assumption_savepoint": false,
                    "threads": 8, "seed": "7", "share_rank": false})"))),
            api::config_fingerprint(defaults));
  EXPECT_EQ(api::config_fingerprint(parse_race_options(
                parse_ok(R"({"threads": 0, "seed": "-3"})"))),
            api::config_fingerprint(defaults));
}

TEST(WireDispatchTest, SubmitWaitPollStatsShutdown) {
  JobServer server;
  const std::string aiger =
      model::to_aiger_string(model::fifo_buggy(4).net);

  JsonWriter submit;
  submit.begin_object();
  submit.kv("op", "submit");
  submit.kv("aiger", aiger);
  submit.kv("name", "wiretest");
  submit.kv("wait", true);
  submit.key("options");
  {
    api::RaceOptions options;
    options.policy("dynamic").max_depth(24);
    write_race_options(submit, options);
  }
  submit.end_object();

  const JsonValue resp = parse_ok(handle_request(server, submit.str()));
  EXPECT_TRUE(resp.get_bool("ok"));
  EXPECT_TRUE(resp.get_bool("accepted"));
  const JobId id = resp.get_uint64("id");
  ASSERT_NE(id, 0u);
  const JsonValue* status = resp.find("status");
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->get_string("state"), "done");
  const JsonValue* result = status->find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->get_string("verdict"), "cex");
  EXPECT_FALSE(result->get_bool("from_cache", true));
  ASSERT_NE(result->find("trace"), nullptr);

  // poll sees the same terminal state.
  const JsonValue polled = parse_ok(handle_request(
      server, R"({"op": "poll", "id": )" + std::to_string(id) + "}"));
  EXPECT_TRUE(polled.get_bool("ok"));
  EXPECT_EQ(polled.find("status")->get_string("state"), "done");

  // events stream the per-depth ticks.
  const JsonValue events = parse_ok(handle_request(
      server, R"({"op": "events", "id": )" + std::to_string(id) + "}"));
  ASSERT_TRUE(events.get_bool("ok"));
  EXPECT_FALSE(events.find("events")->items().empty());

  const JsonValue stats =
      parse_ok(handle_request(server, R"({"op": "stats"})"));
  EXPECT_TRUE(stats.get_bool("ok"));
  EXPECT_EQ(stats.get_uint64("submitted"), 1u);
  EXPECT_EQ(stats.get_uint64("completed"), 1u);

  std::atomic<bool> shutdown_requested{false};
  const JsonValue bye = parse_ok(
      handle_request(server, R"({"op": "shutdown"})", &shutdown_requested));
  EXPECT_TRUE(bye.get_bool("ok"));
  EXPECT_TRUE(shutdown_requested.load());
}

TEST(WireDispatchTest, RetiredOptionKeysDoNotSplitTheCache) {
  // "threads", "seed" and "share_rank" no longer change a race: an old
  // client may still send them, they are ignored, and a resubmission
  // that differs only in them is served from the result cache.
  JobServer server;
  const std::string aiger =
      model::to_aiger_string(model::fifo_buggy(4).net);
  const auto submit = [&](const std::function<void(JsonWriter&)>& retired) {
    JsonWriter w;
    w.begin_object();
    w.kv("op", "submit");
    w.kv("aiger", aiger);
    w.kv("wait", true);
    w.key("options");
    w.begin_object();
    w.key("policies");
    w.begin_array();
    w.value("dynamic");
    w.end_array();
    w.kv("depth", 24);
    retired(w);
    w.end_object();
    w.end_object();
    const JsonValue resp = parse_ok(handle_request(server, w.str()));
    EXPECT_TRUE(resp.get_bool("accepted"));
    const JsonValue* status = resp.find("status");
    EXPECT_NE(status, nullptr);
    if (status == nullptr) return false;
    EXPECT_EQ(status->get_string("state"), "done");
    const JsonValue* result = status->find("result");
    EXPECT_NE(result, nullptr);
    if (result == nullptr) return false;
    EXPECT_EQ(result->get_string("verdict"), "cex");
    return result->get_bool("from_cache", false);
  };

  EXPECT_FALSE(submit([](JsonWriter& w) {
    w.kv("threads", 2);
    w.kv("seed", "7");
    w.kv("share_rank", false);
  }));
  EXPECT_TRUE(submit([](JsonWriter& w) { w.kv("threads", 8); }));
  const JsonValue stats =
      parse_ok(handle_request(server, R"({"op": "stats"})"));
  EXPECT_EQ(stats.get_uint64("cache_hits"), 1u);
  EXPECT_EQ(stats.get_uint64("cache_misses"), 1u);
}

TEST(WireDispatchTest, ErrorsAreTypedNotFatal) {
  JobServer server;
  // Transport-level errors: ok:false with a reason.
  for (const char* bad :
       {"not json at all", R"({"op": "no-such-op"})",
        R"({"op": "submit"})",  // missing aiger
        R"({"op": "submit", "aiger": "garbage"})",
        R"({"op": "poll", "id": 12345})", "[1,2,3]"}) {
    const JsonValue resp = parse_ok(handle_request(server, bad));
    EXPECT_FALSE(resp.get_bool("ok", true)) << bad;
    EXPECT_FALSE(resp.get_string("error").empty()) << bad;
  }

  // An admission rejection is NOT a transport error: ok:true,
  // accepted:false, typed reason.
  const std::string aiger =
      model::to_aiger_string(model::fifo_buggy(4).net);
  JsonWriter submit;
  submit.begin_object();
  submit.kv("op", "submit");
  submit.kv("aiger", aiger);
  submit.kv("bad", 42);  // out of range -> InvalidRequest
  submit.end_object();
  const JsonValue resp = parse_ok(handle_request(server, submit.str()));
  EXPECT_TRUE(resp.get_bool("ok"));
  EXPECT_FALSE(resp.get_bool("accepted", true));
  EXPECT_EQ(resp.get_string("reason"), "invalid_request");
}

TEST(WireSocketTest, ClientAndServerSpeakOverAUnixSocket) {
  JobServer server;
  const std::string path =
      "/tmp/refbmc_wire_test_" + std::to_string(::getpid()) + ".sock";
  SocketServer transport(server, path);
  std::string error;
  ASSERT_TRUE(transport.start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.connect(path, &error)) << error;

  Client::SubmitArgs args;
  args.aiger = model::to_aiger_string(model::fifo_buggy(4).net);
  args.name = "socktest";
  args.wait = true;
  args.options.policy("dynamic").max_depth(24);
  const auto resp = client.submit(args, &error);
  ASSERT_TRUE(resp.has_value()) << error;
  EXPECT_TRUE(resp->get_bool("ok"));
  EXPECT_TRUE(resp->get_bool("accepted"));
  ASSERT_NE(resp->find("status"), nullptr);
  EXPECT_EQ(resp->find("status")->get_string("state"), "done");

  const auto stats = client.stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->get_uint64("completed"), 1u);

  client.close();
  transport.stop();
}

TEST(WireSocketTest, StartStopLoopRestartsCleanly) {
  // The accept thread receives the listener when it starts, so stop()
  // closing and resetting the transport's descriptor never races it (the
  // TSan leg runs this), and the same transport serves after every
  // restart.
  JobServer server;
  const std::string path =
      "/tmp/refbmc_wire_loop_" + std::to_string(::getpid()) + ".sock";
  SocketServer transport(server, path);
  for (int round = 0; round < 8; ++round) {
    std::string error;
    ASSERT_TRUE(transport.start(&error)) << error;
    Client client;
    ASSERT_TRUE(client.connect(path, &error)) << error;
    const auto stats = client.stats(&error);
    ASSERT_TRUE(stats.has_value()) << "round " << round << ": " << error;
    EXPECT_TRUE(stats->get_bool("ok")) << "round " << round;
    client.close();
    transport.stop();
  }
}

}  // namespace
}  // namespace refbmc::service
