// Tests for the src/svc service layer: thread pool, session strands,
// wire framing, and the LocalizationServer end to end.
//
// Concurrency tests here are written to be meaningful under TSan (see
// scripts/check.sh): real worker threads, real contention, assertions on
// invariants (serialization, counts, no lost tasks) rather than timing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.h"
#include "core/trainer.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/span.h"
#include "sim/virtual_clock.h"
#include "svc/checkpoint.h"
#include "svc/epoch_codec.h"
#include "svc/loadgen.h"
#include "svc/server.h"
#include "svc/session_manager.h"
#include "svc/thread_pool.h"
#include "svc/wire.h"
#include "testing_util.h"

namespace uniloc::svc {
namespace {

// ------------------------------------------------------------- thread pool

TEST(ThreadPool, RunsEveryPostedTask) {
  ThreadPool pool({.workers = 4, .queue_capacity = 16});
  std::atomic<int> sum{0};
  for (int i = 1; i <= 100; ++i) {
    ASSERT_TRUE(pool.post([&sum, i] { sum += i; }));
  }
  pool.shutdown();
  EXPECT_EQ(sum.load(), 5050);
  EXPECT_EQ(pool.tasks_run(), 100u);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPool, ShutdownDrainsQueuedWork) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool({.workers = 2, .queue_capacity = 64});
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(pool.post([&ran] { ++ran; }));
    }
    // Destructor calls shutdown(): every accepted task must still run.
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, PostAfterShutdownIsRejected) {
  ThreadPool pool({.workers = 1, .queue_capacity = 4});
  pool.shutdown();
  EXPECT_FALSE(pool.post([] {}));
  pool.shutdown();  // idempotent
}

TEST(ThreadPool, ThrowingTaskDoesNotKillWorker) {
  ThreadPool pool({.workers = 1, .queue_capacity = 8});
  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.post([] { throw std::runtime_error("boom"); }));
  ASSERT_TRUE(pool.post([&ran] { ++ran; }));  // same worker must survive
  pool.shutdown();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(pool.task_exceptions(), 1u);
  EXPECT_EQ(pool.tasks_run(), 2u);
}

TEST(ThreadPool, InlineModeRunsSynchronously) {
  ThreadPool pool({.workers = 0, .queue_capacity = 4});
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(pool.post([&order, i] { order.push_back(i); }));
    // Inline mode: the task already ran, in submission order.
    ASSERT_EQ(order.size(), static_cast<std::size_t>(i + 1));
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(pool.tasks_run(), 5u);
}

// ---------------------------------------------------------------- session

TEST(Session, StrandRunsTasksInOrder) {
  Session s(7, nullptr);
  std::vector<int> order;
  EXPECT_EQ(s.enqueue([&order] { order.push_back(0); }, 8, 100),
            Session::Enqueue::kStartDrain);
  // Not draining yet; further tasks just queue behind the first.
  EXPECT_EQ(s.enqueue([&order] { order.push_back(1); }, 8, 101),
            Session::Enqueue::kQueued);
  EXPECT_EQ(s.enqueue([&order] { order.push_back(2); }, 8, 102),
            Session::Enqueue::kQueued);
  EXPECT_FALSE(s.idle());
  s.drain();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(s.idle());
  EXPECT_EQ(s.epochs_served(), 3u);
  EXPECT_EQ(s.last_active_us(), 102u);
}

TEST(Session, BackpressureWhenInboxFull) {
  Session s(7, nullptr);
  int dropped = 0;
  EXPECT_EQ(s.enqueue([] {}, 2, 1), Session::Enqueue::kStartDrain);
  EXPECT_EQ(s.enqueue([] {}, 2, 2), Session::Enqueue::kQueued);
  EXPECT_EQ(s.enqueue([&dropped] { ++dropped; }, 2, 3),
            Session::Enqueue::kBackpressure);
  s.drain();
  EXPECT_EQ(dropped, 0);  // rejected task must never run
  EXPECT_EQ(s.epochs_served(), 2u);
  // After the drain the inbox has space again.
  EXPECT_EQ(s.enqueue([] {}, 2, 4), Session::Enqueue::kStartDrain);
  s.drain();
}

TEST(Session, TaskEnqueuedDuringDrainIsPickedUp) {
  Session s(1, nullptr);
  std::vector<int> order;
  ASSERT_EQ(s.enqueue(
                [&] {
                  order.push_back(0);
                  // Mid-drain enqueue: the running drain must absorb it
                  // without a second kStartDrain handshake.
                  EXPECT_EQ(s.enqueue([&] { order.push_back(1); }, 8, 11),
                            Session::Enqueue::kQueued);
                },
                8, 10),
            Session::Enqueue::kStartDrain);
  s.drain();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_TRUE(s.idle());
}

TEST(Session, PoolDrainsNeverReorderEpochsWithinASession) {
  // Two workers drain interleaved bursts from several sessions, each
  // drain posted on its kStartDrain handshake exactly as the server
  // dispatches epochs. Every session must observe its own epochs in
  // exact submission order -- the strand + kStartDrain handshake, not
  // timing, is what guarantees it.
  constexpr std::size_t kSessions = 3;
  constexpr int kEpochs = 200;
  ThreadPool pool({.workers = 2, .queue_capacity = 1024});
  std::vector<SessionPtr> sessions;
  std::vector<std::vector<int>> seen(kSessions);
  for (std::uint64_t id = 0; id < kSessions; ++id) {
    sessions.push_back(std::make_shared<Session>(id + 1, nullptr));
    seen[id].reserve(kEpochs);
  }
  for (int e = 0; e < kEpochs; ++e) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      // The strand serializes a session's tasks, so its `seen` vector is
      // only ever appended from one worker at a time.
      std::vector<int>* log = &seen[s];
      for (;;) {
        const Session::Enqueue rc = sessions[s]->enqueue(
            [log, e] { log->push_back(e); }, /*capacity=*/8, /*now_us=*/0);
        if (rc == Session::Enqueue::kStartDrain) {
          const SessionPtr session = sessions[s];
          ASSERT_TRUE(pool.post([session] { session->drain(); }));
        }
        if (rc != Session::Enqueue::kBackpressure) break;
        // Inbox full: wait for the workers to catch up, then retry so
        // every epoch is delivered (the ordering check needs all 200).
        std::this_thread::yield();
      }
    }
  }
  pool.shutdown();
  for (std::size_t s = 0; s < kSessions; ++s) {
    ASSERT_EQ(seen[s].size(), static_cast<std::size_t>(kEpochs))
        << "session " << s;
    for (int e = 0; e < kEpochs; ++e) {
      ASSERT_EQ(seen[s][e], e) << "session " << s << " position " << e;
    }
  }
}

TEST(Session, ClosedSessionRefusesNewTasksButRunsAcceptedOnes) {
  Session s(1, nullptr);
  int ran = 0;
  ASSERT_EQ(s.enqueue([&ran] { ++ran; }, 8, 1),
            Session::Enqueue::kStartDrain);
  s.close();
  EXPECT_EQ(s.enqueue([&ran] { ran += 100; }, 8, 2),
            Session::Enqueue::kClosed);
  s.drain();
  EXPECT_EQ(ran, 1);  // the task accepted before the close still ran
  EXPECT_EQ(s.epochs_served(), 1u);
  EXPECT_EQ(s.last_active_us(), 1u);  // a refused task stamps nothing
  EXPECT_TRUE(s.idle());
}

// --------------------------------------------------------- session manager

TEST(SessionManager, CreateFindErase) {
  SessionManager mgr(4);
  for (std::uint64_t id = 1; id <= 40; ++id) {
    ASSERT_NE(mgr.create(id, nullptr, 0), nullptr);
  }
  EXPECT_EQ(mgr.size(), 40u);
  EXPECT_EQ(mgr.create(17, nullptr, 0), nullptr);  // duplicate id
  EXPECT_EQ(mgr.size(), 40u);
  ASSERT_NE(mgr.find(17), nullptr);
  EXPECT_EQ(mgr.find(17)->id(), 17u);
  EXPECT_EQ(mgr.find(999), nullptr);
  EXPECT_TRUE(mgr.erase(17));
  EXPECT_FALSE(mgr.erase(17));
  EXPECT_EQ(mgr.find(17), nullptr);
  EXPECT_EQ(mgr.size(), 39u);
}

TEST(SessionManager, SequentialIdsSpreadAcrossStripes) {
  SessionManager mgr(8);
  std::set<std::size_t> used;
  for (std::uint64_t id = 0; id < 64; ++id) {
    const std::size_t s = mgr.stripe_of(id);
    EXPECT_LT(s, mgr.stripes());
    used.insert(s);
  }
  // Fibonacci hashing: 64 sequential ids must touch every one of the 8
  // stripes (a modulo-only scheme would too, but a shifted or byte-based
  // one can collapse sequential ids onto one stripe).
  EXPECT_EQ(used.size(), 8u);
}

TEST(SessionManager, EvictsOnlyIdleExpiredSessions) {
  SessionManager mgr(4);
  mgr.create(1, nullptr, 1000);  // will expire
  mgr.create(2, nullptr, 5000);  // recent
  SessionPtr busy = mgr.create(3, nullptr, 1000);
  ASSERT_NE(busy, nullptr);
  // Queue work without draining: session 3 is expired but busy.
  ASSERT_EQ(busy->enqueue([] {}, 8, 1000), Session::Enqueue::kStartDrain);

  EXPECT_EQ(mgr.evict_idle(/*now_us=*/6000, /*idle_ttl_us=*/3000), 1u);
  EXPECT_EQ(mgr.find(1), nullptr);
  EXPECT_NE(mgr.find(2), nullptr);
  EXPECT_NE(mgr.find(3), nullptr);  // busy: spared despite expiry

  busy->drain();
  // Drain stamps nothing new (enqueue did, at 1000): now evictable.
  EXPECT_EQ(mgr.evict_idle(6000, 3000), 1u);
  EXPECT_EQ(mgr.find(3), nullptr);
  EXPECT_EQ(mgr.size(), 1u);
}

TEST(SessionManager, EvictsExactlyAtTtlBoundary) {
  SessionManager mgr(4);
  mgr.create(1, nullptr, 1000);
  // One tick short of the TTL: spared.
  EXPECT_EQ(mgr.evict_idle(/*now_us=*/3999, /*idle_ttl_us=*/3000), 0u);
  ASSERT_NE(mgr.find(1), nullptr);
  // now == last_activity + idle_ttl: the TTL has fully elapsed -- evict.
  EXPECT_EQ(mgr.evict_idle(/*now_us=*/4000, /*idle_ttl_us=*/3000), 1u);
  EXPECT_EQ(mgr.find(1), nullptr);
}

TEST(SessionManager, ClockBehindLastActivityNeverEvicts) {
  // A session touched "in the future" (clock skew between submit and
  // scan) must not be evicted by the u64 subtraction wrapping around.
  SessionManager mgr(4);
  mgr.create(1, nullptr, 10'000);
  EXPECT_EQ(mgr.evict_idle(/*now_us=*/5000, /*idle_ttl_us=*/1), 0u);
  EXPECT_NE(mgr.find(1), nullptr);
}

TEST(SessionManager, SessionBecomingBusyBetweenScansIsSpared) {
  SessionManager mgr(4);
  SessionPtr s = mgr.create(1, nullptr, 1000);
  ASSERT_NE(s, nullptr);
  // First scan: not yet expired.
  EXPECT_EQ(mgr.evict_idle(2000, 3000), 0u);
  // The session turns busy before the next scan; even though its
  // last-active stamp (4000) plus TTL has elapsed by scan time, a
  // pending task must always spare it.
  ASSERT_EQ(s->enqueue([] {}, 8, 4000), Session::Enqueue::kStartDrain);
  EXPECT_EQ(mgr.evict_idle(8000, 3000), 0u);
  ASSERT_NE(mgr.find(1), nullptr);
  // Once drained (stamp still 4000), the same scan time evicts.
  s->drain();
  EXPECT_EQ(mgr.evict_idle(8000, 3000), 1u);
  EXPECT_EQ(mgr.find(1), nullptr);
}

// ------------------------------------------------------------------- wire

TEST(Wire, FrameRoundTrip) {
  Frame f;
  f.type = FrameType::kEpoch;
  f.session_id = 0xDEADBEEFCAFE1234ull;
  f.payload = {1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> bytes = encode_frame(f);
  EXPECT_EQ(bytes.size(), kHeaderBytes + f.payload.size());
  const DecodeResult r = decode_frame(bytes);
  ASSERT_TRUE(r.frame.has_value());
  EXPECT_EQ(r.error, WireError::kNone);
  EXPECT_EQ(r.consumed, bytes.size());
  EXPECT_EQ(r.frame->type, FrameType::kEpoch);
  EXPECT_EQ(r.frame->session_id, f.session_id);
  EXPECT_EQ(r.frame->payload, f.payload);
}

TEST(Wire, RejectsBadMagic) {
  Frame f;
  f.type = FrameType::kHello;
  std::vector<std::uint8_t> bytes = encode_frame(f);
  bytes[4] ^= 0xFF;  // first magic byte, after the length prefix
  const DecodeResult r = decode_frame(bytes);
  EXPECT_FALSE(r.frame.has_value());
  EXPECT_EQ(r.error, WireError::kBadMagic);
}

TEST(Wire, RejectsBadVersion) {
  Frame f;
  f.type = FrameType::kHello;
  std::vector<std::uint8_t> bytes = encode_frame(f);
  bytes[8] = kVersion + 1;
  const DecodeResult r = decode_frame(bytes);
  EXPECT_FALSE(r.frame.has_value());
  EXPECT_EQ(r.error, WireError::kBadVersion);
}

TEST(Wire, RejectsUnknownType) {
  Frame f;
  f.type = FrameType::kHello;
  std::vector<std::uint8_t> bytes = encode_frame(f);
  bytes[9] = 0x42;  // not a FrameType
  const DecodeResult r = decode_frame(bytes);
  EXPECT_FALSE(r.frame.has_value());
  EXPECT_EQ(r.error, WireError::kBadType);
}

TEST(Wire, RejectsEveryTruncation) {
  Frame f;
  f.type = FrameType::kEpoch;
  f.session_id = 9;
  f.payload = {10, 20, 30};
  const std::vector<std::uint8_t> bytes = encode_frame(f);
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    const DecodeResult r = decode_frame(bytes.data(), n);
    EXPECT_FALSE(r.frame.has_value()) << "prefix length " << n;
    EXPECT_EQ(r.error, WireError::kTruncated) << "prefix length " << n;
  }
}

TEST(Wire, RejectsOversizedLength) {
  Frame f;
  f.type = FrameType::kHello;
  std::vector<std::uint8_t> bytes = encode_frame(f);
  bytes[0] = 0xFF;  // length low byte
  bytes[1] = 0xFF;
  bytes[2] = 0xFF;
  bytes[3] = 0x7F;  // far beyond kMaxPayloadBytes
  const DecodeResult r = decode_frame(bytes);
  EXPECT_FALSE(r.frame.has_value());
  EXPECT_EQ(r.error, WireError::kBadLength);
}

TEST(Wire, RejectsLengthBelowHeaderMinimum) {
  Frame f;
  f.type = FrameType::kHello;
  std::vector<std::uint8_t> bytes = encode_frame(f);
  bytes[0] = 3;  // fewer bytes than magic+version+type+session alone
  bytes[1] = bytes[2] = bytes[3] = 0;
  const DecodeResult r = decode_frame(bytes);
  EXPECT_FALSE(r.frame.has_value());
  EXPECT_EQ(r.error, WireError::kBadLength);
}

TEST(Wire, HelloPayloadRoundTrip) {
  const HelloPayload h{{12.345, -6.789}, 1.25};
  const std::vector<std::uint8_t> bytes = encode_hello(h);
  EXPECT_EQ(bytes.size(), HelloPayload::kBytes);
  const std::optional<HelloPayload> back = parse_hello(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_NEAR(back->start.x, h.start.x, 0.01);   // cm quantization
  EXPECT_NEAR(back->start.y, h.start.y, 0.01);
  EXPECT_NEAR(back->heading, h.heading, 1e-5);   // urad quantization
  EXPECT_FALSE(parse_hello({1, 2, 3}).has_value());
}

TEST(Wire, ErrorFrameCarriesCode) {
  const Frame e = make_error_frame(42, ErrorCode::kBackpressure);
  EXPECT_EQ(e.type, FrameType::kError);
  EXPECT_EQ(e.session_id, 42u);
  ASSERT_TRUE(error_code(e).has_value());
  EXPECT_EQ(*error_code(e), ErrorCode::kBackpressure);
  Frame not_error;
  not_error.type = FrameType::kReply;
  EXPECT_FALSE(error_code(not_error).has_value());
}

TEST(EpochCodec, ReplyRoundTrip) {
  EpochReply reply;
  reply.downlink = offload::DownlinkFrame::encode({3.25, -8.5});
  reply.gps_enable_next = false;
  const std::vector<std::uint8_t> bytes = encode_epoch_reply(reply);
  EXPECT_EQ(bytes.size(), EpochReply::kBytes);
  const std::optional<EpochReply> back = parse_epoch_reply(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_DOUBLE_EQ(back->downlink.decoded().x, 3.25);
  EXPECT_DOUBLE_EQ(back->downlink.decoded().y, -8.5);
  EXPECT_FALSE(back->gps_enable_next);
  EXPECT_FALSE(parse_epoch_reply({1, 2}).has_value());
}

// ----------------------------------------------------------------- server

// One trained model set for every server test (training is the slow part).
const core::TrainedModels& test_models() {
  return testing_util::standard_models(100);
}

struct ServerFixture {
  const core::Deployment& office = testing_util::office_deployment();

  UnilocFactory factory() {
    return [this](std::uint64_t sid) {
      return std::make_unique<core::Uniloc>(core::make_uniloc(
          office, test_models(), {}, false, /*seed=*/7 + sid));
    };
  }
};

std::vector<std::uint8_t> hello_frame(std::uint64_t sid, geo::Vec2 start,
                                      double heading) {
  Frame f;
  f.type = FrameType::kHello;
  f.session_id = sid;
  f.payload = encode_hello({start, heading});
  return encode_frame(f);
}

Frame get_reply(LocalizationServer& server, std::vector<std::uint8_t> req) {
  const DecodeResult r = decode_frame(server.submit(std::move(req)).get());
  EXPECT_EQ(r.error, WireError::kNone);
  return r.frame.value();
}

TEST(Server, HelloEpochByeFlow) {
  ServerFixture fx;
  obs::MetricsRegistry reg;
  LocalizationServer server({}, fx.factory(), &reg);

  sim::WalkConfig wc;
  wc.seed = 11;
  sim::Walker walker(fx.office.place.get(), fx.office.radio.get(), 0, wc);
  offload::PhoneAgent phone;
  phone.reset(walker.start_heading());

  const Frame ack = get_reply(
      server,
      hello_frame(1, walker.start_position(), walker.start_heading()));
  EXPECT_EQ(ack.type, FrameType::kReply);
  EXPECT_EQ(server.live_sessions(), 1u);

  bool gps = true;
  std::size_t epochs = 0;
  for (; !walker.done() && epochs < 40; ++epochs) {
    const sim::SensorFrame f = walker.step(gps);
    Frame req;
    req.type = FrameType::kEpoch;
    req.session_id = 1;
    req.payload = encode_epoch(phone.reduce(f), f);
    const Frame reply = get_reply(server, encode_frame(req));
    ASSERT_EQ(reply.type, FrameType::kReply);
    const std::optional<EpochReply> er = parse_epoch_reply(reply.payload);
    ASSERT_TRUE(er.has_value());
    gps = er->gps_enable_next;
    // Office walk: the fused estimate stays on the premises.
    EXPECT_LT(geo::distance(er->downlink.decoded(), f.truth_pos), 50.0);
  }

  Frame bye;
  bye.type = FrameType::kBye;
  bye.session_id = 1;
  EXPECT_EQ(get_reply(server, encode_frame(bye)).type, FrameType::kReply);
  EXPECT_EQ(server.live_sessions(), 0u);

  EXPECT_EQ(reg.counter("svc.accepted").value(), 2u + epochs);
  EXPECT_EQ(reg.counter("svc.malformed").value(), 0u);
  EXPECT_EQ(reg.histogram("svc.request_us").count(), epochs);
  EXPECT_EQ(reg.histogram("svc.locate_us").count(), epochs);
}

TEST(Server, RejectsMalformedInput) {
  ServerFixture fx;
  obs::MetricsRegistry reg;
  LocalizationServer server({}, fx.factory(), &reg);

  // Garbage bytes, a truncated frame, and a valid frame with a corrupt
  // epoch payload must all answer kError kMalformed.
  std::vector<std::vector<std::uint8_t>> bad;
  bad.push_back({0xDE, 0xAD, 0xBE, 0xEF});
  Frame hello;
  hello.type = FrameType::kHello;
  hello.session_id = 5;
  hello.payload = encode_hello({{0, 0}, 0});
  std::vector<std::uint8_t> truncated = encode_frame(hello);
  truncated.resize(truncated.size() - 3);
  bad.push_back(truncated);
  Frame short_hello;
  short_hello.type = FrameType::kHello;
  short_hello.session_id = 6;
  short_hello.payload = {1, 2};  // not a HelloPayload
  bad.push_back(encode_frame(short_hello));

  for (std::vector<std::uint8_t>& req : bad) {
    const DecodeResult r = decode_frame(server.submit(std::move(req)).get());
    ASSERT_TRUE(r.frame.has_value());
    EXPECT_EQ(r.frame->type, FrameType::kError);
    EXPECT_EQ(error_code(*r.frame), ErrorCode::kMalformed);
  }
  EXPECT_EQ(reg.counter("svc.malformed").value(), 3u);
  EXPECT_EQ(server.live_sessions(), 0u);

  // Valid session, corrupt epoch payload.
  get_reply(server, hello_frame(7, {1.0, 1.0}, 0.0));
  Frame bad_epoch;
  bad_epoch.type = FrameType::kEpoch;
  bad_epoch.session_id = 7;
  bad_epoch.payload = {9, 9, 9};
  const Frame reply = get_reply(server, encode_frame(bad_epoch));
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(error_code(reply), ErrorCode::kMalformed);
  EXPECT_EQ(reg.counter("svc.malformed").value(), 4u);
  EXPECT_EQ(server.live_sessions(), 1u);  // session survives bad input
}

TEST(Server, SessionLifecycleErrors) {
  ServerFixture fx;
  LocalizationServer server({}, fx.factory(), nullptr);

  Frame epoch;
  epoch.type = FrameType::kEpoch;
  epoch.session_id = 3;
  epoch.payload = encode_epoch({}, sim::SensorFrame{});
  EXPECT_EQ(error_code(get_reply(server, encode_frame(epoch))),
            ErrorCode::kUnknownSession);

  get_reply(server, hello_frame(3, {0, 0}, 0.0));
  EXPECT_EQ(error_code(get_reply(server, hello_frame(3, {0, 0}, 0.0))),
            ErrorCode::kSessionExists);

  Frame bye;
  bye.type = FrameType::kBye;
  bye.session_id = 99;
  EXPECT_EQ(error_code(get_reply(server, encode_frame(bye))),
            ErrorCode::kUnknownSession);

  server.shutdown();
  EXPECT_EQ(error_code(get_reply(server, hello_frame(8, {0, 0}, 0.0))),
            ErrorCode::kShuttingDown);
}

TEST(Server, RetiredKnobsAcceptOnlyTheirDefaults) {
  // use_fast_path and simulated_network stay in ServerConfig only so
  // existing callers that assign their defaults compile; every epoch runs
  // update_fast and no worker sleeps, so any other value is refused
  // before a worker starts.
  ServerFixture fx;
  ServerConfig reference;
  reference.use_fast_path = false;
  EXPECT_THROW(LocalizationServer(reference, fx.factory(), nullptr),
               std::invalid_argument);
  ServerConfig sleeping;
  sleeping.workers = 2;
  sleeping.simulated_network = std::chrono::microseconds(5000);
  EXPECT_THROW(LocalizationServer(sleeping, fx.factory(), nullptr),
               std::invalid_argument);
  ServerConfig defaults;
  defaults.use_fast_path = true;
  defaults.simulated_network = std::chrono::microseconds(0);
  LocalizationServer server(defaults, fx.factory(), nullptr);
  EXPECT_EQ(get_reply(server, hello_frame(1, {5.0, 5.0}, 0.0)).type,
            FrameType::kReply);
}

TEST(Server, DuplicateHelloIsRefusedBeforeTheFactoryRuns) {
  ServerFixture fx;
  std::size_t builds = 0;
  const UnilocFactory build = fx.factory();
  LocalizationServer server(
      {}, [&builds, &build](std::uint64_t sid) {
        ++builds;
        return build(sid);
      });
  LocalizationServer control({}, fx.factory());

  sim::WalkConfig wc;
  wc.seed = 21;
  sim::Walker walker(fx.office.place.get(), fx.office.radio.get(), 0, wc);
  offload::PhoneAgent phone;
  phone.reset(walker.start_heading());
  const std::vector<std::uint8_t> hello =
      hello_frame(3, walker.start_position(), walker.start_heading());
  ASSERT_EQ(get_reply(server, hello).type, FrameType::kReply);
  ASSERT_EQ(get_reply(control, hello).type, FrameType::kReply);
  ASSERT_EQ(builds, 1u);

  // The duplicate (even with a different start pose) is refused without
  // building an ensemble.
  EXPECT_EQ(error_code(get_reply(server, hello_frame(3, {5.0, 5.0}, 1.0))),
            ErrorCode::kSessionExists);
  EXPECT_EQ(builds, 1u);
  EXPECT_EQ(server.live_sessions(), 1u);

  // The live session is untouched: its replies are byte-identical to a
  // server that never saw the duplicate.
  for (int i = 0; i < 5 && !walker.done(); ++i) {
    const sim::SensorFrame f = walker.step(true);
    Frame req;
    req.type = FrameType::kEpoch;
    req.session_id = 3;
    req.payload = encode_epoch(phone.reduce(f), f);
    const std::vector<std::uint8_t> bytes = encode_frame(req);
    EXPECT_EQ(server.submit(bytes).get(), control.submit(bytes).get())
        << "epoch " << i;
  }
}

TEST(Server, InboxFullAnswersBackpressure) {
  ServerFixture fx;
  obs::MetricsRegistry reg;
  ServerConfig cfg;
  cfg.inbox_capacity = 0;  // inline mode + zero inbox: reject every epoch
  LocalizationServer server(cfg, fx.factory(), &reg);
  get_reply(server, hello_frame(1, {0, 0}, 0.0));
  Frame epoch;
  epoch.type = FrameType::kEpoch;
  epoch.session_id = 1;
  epoch.payload = encode_epoch({}, sim::SensorFrame{});
  EXPECT_EQ(error_code(get_reply(server, encode_frame(epoch))),
            ErrorCode::kBackpressure);
  EXPECT_EQ(reg.counter("svc.rejected").value(), 1u);
}

TEST(Server, IdleSessionsAreEvicted) {
  ServerFixture fx;
  obs::MetricsRegistry reg;
  sim::VirtualClock clock;  // TTLs advance explicitly, never by wall time
  ServerConfig cfg;
  cfg.idle_ttl_s = 1.0;
  cfg.now_us = clock.now_fn();
  LocalizationServer server(cfg, fx.factory(), &reg);

  get_reply(server, hello_frame(1, {0, 0}, 0.0));
  clock.advance_us(500'000);
  get_reply(server, hello_frame(2, {0, 0}, 0.0));
  EXPECT_EQ(server.live_sessions(), 2u);

  clock.advance_us(700'000);  // session 1 idle 1.2 s, session 2 idle 0.7 s
  EXPECT_EQ(server.evict_idle(), 1u);
  EXPECT_EQ(server.live_sessions(), 1u);
  EXPECT_EQ(reg.counter("svc.evicted").value(), 1u);
  // Session 2 still serves epochs after the sweep.
  Frame epoch;
  epoch.type = FrameType::kEpoch;
  epoch.session_id = 2;
  epoch.payload = encode_epoch({}, sim::SensorFrame{});
  EXPECT_EQ(get_reply(server, encode_frame(epoch)).type, FrameType::kReply);
}

TEST(Server, TtlSurvivesVirtualClockJumps) {
  // A VirtualClock can jump by arbitrary amounts between scans (blackout
  // drills advance it hours at a time); the TTL math must hold at the
  // exact boundary and across a jump far past it.
  ServerFixture fx;
  sim::VirtualClock clock;
  ServerConfig cfg;
  cfg.idle_ttl_s = 1.0;
  cfg.now_us = clock.now_fn();
  LocalizationServer server(cfg, fx.factory());

  get_reply(server, hello_frame(1, {0, 0}, 0.0));
  clock.advance_us(999'999);  // one tick short of the 1 s TTL
  EXPECT_EQ(server.evict_idle(), 0u);
  clock.advance_us(1);  // exactly at the boundary
  EXPECT_EQ(server.evict_idle(), 1u);

  get_reply(server, hello_frame(2, {0, 0}, 0.0));
  clock.advance_us(3'600'000'000ull);  // hour-long jump: still exactly one
  EXPECT_EQ(server.evict_idle(), 1u);
  EXPECT_EQ(server.live_sessions(), 0u);
}

// ------------------------------------------------- session migration (wire)

std::vector<std::uint8_t> migrate_frame(std::uint64_t sid,
                                        std::vector<std::uint8_t> payload) {
  Frame f;
  f.type = FrameType::kMigrate;
  f.session_id = sid;
  f.payload = std::move(payload);
  return encode_frame(f);
}

TEST(Migrate, ExtractAdoptServesIdenticalEpochs) {
  // Walk a session to mid-walk on A, extract/adopt onto B over the
  // kMigrate wire path, and finish the walk there: every post-move reply
  // must be byte-identical to a control server that never migrated.
  ServerFixture fx;
  LocalizationServer a({}, fx.factory());
  LocalizationServer b({}, fx.factory());
  LocalizationServer control({}, fx.factory());

  sim::WalkConfig wc;
  wc.seed = 33;
  sim::Walker walker(fx.office.place.get(), fx.office.radio.get(), 0, wc);
  offload::PhoneAgent phone;
  phone.reset(walker.start_heading());
  const std::vector<std::uint8_t> hello =
      hello_frame(9, walker.start_position(), walker.start_heading());
  ASSERT_EQ(get_reply(a, hello).type, FrameType::kReply);
  ASSERT_EQ(get_reply(control, hello).type, FrameType::kReply);

  auto epoch_bytes = [&](const sim::SensorFrame& f) {
    Frame req;
    req.type = FrameType::kEpoch;
    req.session_id = 9;
    req.payload = encode_epoch(phone.reduce(f), f);
    return encode_frame(req);
  };
  for (std::size_t i = 0; i < 10 && !walker.done(); ++i) {
    const std::vector<std::uint8_t> req = epoch_bytes(walker.step(true));
    const std::vector<std::uint8_t> ra = a.submit(req).get();
    const std::vector<std::uint8_t> rc = control.submit(req).get();
    ASSERT_EQ(ra, rc);
  }

  const std::optional<std::vector<std::uint8_t>> moved = a.extract_session(9);
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(a.live_sessions(), 0u);
  ASSERT_EQ(get_reply(b, migrate_frame(9, *moved)).type, FrameType::kReply);
  EXPECT_EQ(b.live_sessions(), 1u);

  for (std::size_t i = 0; i < 10 && !walker.done(); ++i) {
    const std::vector<std::uint8_t> req = epoch_bytes(walker.step(true));
    const std::vector<std::uint8_t> rb = b.submit(req).get();
    const std::vector<std::uint8_t> rc = control.submit(req).get();
    ASSERT_EQ(rb, rc) << "post-migration epoch " << i << " diverged";
  }

  // The source no longer knows the session; its bookkeeping moved along.
  Frame epoch;
  epoch.type = FrameType::kEpoch;
  epoch.session_id = 9;
  epoch.payload = encode_epoch({}, sim::SensorFrame{});
  EXPECT_EQ(error_code(get_reply(a, encode_frame(epoch))),
            ErrorCode::kUnknownSession);
  EXPECT_EQ(b.status().sessions.at(0).epochs_served,
            control.status().sessions.at(0).epochs_served);
}

TEST(Migrate, ExtractUnknownSessionIsNull) {
  ServerFixture fx;
  LocalizationServer a({}, fx.factory());
  EXPECT_FALSE(a.extract_session(404).has_value());
}

TEST(Migrate, AdoptRejectsWrongAndDuplicateIds) {
  ServerFixture fx;
  LocalizationServer a({}, fx.factory());
  LocalizationServer b({}, fx.factory());
  obs::MetricsRegistry reg;
  LocalizationServer c({}, fx.factory(), &reg);

  get_reply(a, hello_frame(5, {0, 0}, 0.0));
  const std::vector<std::uint8_t> payload = *a.extract_session(5);

  // Frame routed under a different id than the record carries: hostile.
  EXPECT_EQ(error_code(get_reply(b, migrate_frame(6, payload))),
            ErrorCode::kMalformed);
  EXPECT_EQ(b.live_sessions(), 0u);

  // First adopt lands; a replayed kMigrate for the same id must refuse
  // without clobbering the live session.
  ASSERT_EQ(get_reply(c, migrate_frame(5, payload)).type, FrameType::kReply);
  EXPECT_EQ(error_code(get_reply(c, migrate_frame(5, payload))),
            ErrorCode::kSessionExists);
  EXPECT_EQ(c.live_sessions(), 1u);
  EXPECT_EQ(reg.counter("svc.malformed").value(), 0u);
}

TEST(Migrate, EveryTruncationIsRejectedCleanly) {
  ServerFixture fx;
  LocalizationServer a({}, fx.factory());
  get_reply(a, hello_frame(5, {0, 0}, 0.0));
  const std::vector<std::uint8_t> payload = *a.extract_session(5);

  LocalizationServer b({}, fx.factory());
  // Exhaustive over the framing-dense prefix, strided across the bulk
  // (particle arrays), exhaustive again near the end -- same coverage
  // pattern the full-snapshot fuzz uses.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n < std::min<std::size_t>(payload.size(), 96); ++n) {
    lengths.push_back(n);
  }
  for (std::size_t n = 96; n + 48 < payload.size(); n += 61) {
    lengths.push_back(n);
  }
  for (std::size_t n =
           payload.size() - std::min<std::size_t>(payload.size(), 48);
       n < payload.size(); ++n) {
    lengths.push_back(n);
  }
  for (const std::size_t n : lengths) {
    const std::vector<std::uint8_t> cut(payload.begin(), payload.begin() + n);
    EXPECT_EQ(error_code(get_reply(b, migrate_frame(5, cut))),
              ErrorCode::kMalformed)
        << "truncated to " << n << " bytes";
    EXPECT_EQ(b.live_sessions(), 0u);
  }
  // Trailing garbage violates the exact-length contract just as hard.
  std::vector<std::uint8_t> padded = payload;
  padded.push_back(0);
  EXPECT_EQ(error_code(get_reply(b, migrate_frame(5, padded))),
            ErrorCode::kMalformed);
  // The intact payload still adopts after the whole fuzz barrage.
  EXPECT_EQ(get_reply(b, migrate_frame(5, payload)).type, FrameType::kReply);
}

TEST(Migrate, BitFlipsNeverCrashTheAdopter) {
  ServerFixture fx;
  LocalizationServer a({}, fx.factory());
  get_reply(a, hello_frame(5, {0, 0}, 0.0));
  const std::vector<std::uint8_t> payload = *a.extract_session(5);

  LocalizationServer b({}, fx.factory());
  // A flip may land in a particle coordinate (adopt succeeds with a
  // different cloud -- benign) or in framing (must reject); either way
  // no crash, no UB, and the server keeps serving. Sessions that do
  // adopt are extracted again so every trial starts empty.
  std::mt19937_64 rng(13);
  for (std::size_t trial = 0; trial < 400; ++trial) {
    std::vector<std::uint8_t> mutated = payload;
    const std::size_t byte = rng() % mutated.size();
    mutated[byte] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
    const Frame reply = get_reply(b, migrate_frame(5, mutated));
    if (reply.type == FrameType::kReply) b.extract_session(5);
  }
  EXPECT_EQ(get_reply(b, migrate_frame(5, payload)).type, FrameType::kReply);
}

TEST(Migrate, BadSnapshotMagicAndVersionAreRejected) {
  ServerFixture fx;
  LocalizationServer a({}, fx.factory());
  get_reply(a, hello_frame(5, {0, 0}, 0.0));
  const std::vector<std::uint8_t> payload = *a.extract_session(5);

  LocalizationServer b({}, fx.factory());
  std::vector<std::uint8_t> bad_magic = payload;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(error_code(get_reply(b, migrate_frame(5, bad_magic))),
            ErrorCode::kMalformed);
  std::vector<std::uint8_t> bad_version = payload;
  bad_version[4] = 99;  // unknown to both codec versions (v1 f64, v2 quantized)
  EXPECT_EQ(error_code(get_reply(b, migrate_frame(5, bad_version))),
            ErrorCode::kMalformed);
  EXPECT_EQ(error_code(get_reply(b, migrate_frame(5, {}))),
            ErrorCode::kMalformed);
  EXPECT_EQ(b.live_sessions(), 0u);
}

TEST(Migrate, PinnedSessionSurvivesTtlScan) {
  // The eviction-vs-migration race surface: extract_session pins before
  // it quiesces, and a TTL sweep arriving in the pin window must skip
  // the session -- otherwise the sweep could evict it mid-serialization,
  // the client would re-hello a fresh twin on the source, and the fleet
  // would end up with two divergent copies of one session id.
  SessionManager mgr(4);
  const SessionPtr pinned = mgr.create(1, nullptr, 0);
  const SessionPtr idle_twin = mgr.create(2, nullptr, 0);
  ASSERT_NE(pinned, nullptr);
  ASSERT_NE(idle_twin, nullptr);
  pinned->set_pinned(true);

  // Both sessions are idle and eons past the TTL; only the twin goes.
  EXPECT_EQ(mgr.evict_idle(/*now_us=*/5'000'000, /*ttl_us=*/1'000'000), 1u);
  EXPECT_NE(mgr.find(1), nullptr);
  EXPECT_EQ(mgr.find(2), nullptr);

  // Unpinning re-arms normal eviction (a rolled-back migration).
  pinned->set_pinned(false);
  EXPECT_EQ(mgr.evict_idle(5'000'000, 1'000'000), 1u);
  EXPECT_EQ(mgr.size(), 0u);
}

TEST(Migrate, ExtractedSessionEpochGetsUnknownSessionThenRehello) {
  // A client whose session was just extracted (mid-migration) and whose
  // frame reaches the *source server* directly sees kUnknownSession --
  // the standard re-hello reconcile signal, identical to eviction.
  ServerFixture fx;
  LocalizationServer a({}, fx.factory());
  get_reply(a, hello_frame(4, {0, 0}, 0.0));
  ASSERT_TRUE(a.extract_session(4).has_value());

  Frame epoch;
  epoch.type = FrameType::kEpoch;
  epoch.session_id = 4;
  epoch.payload = encode_epoch({}, sim::SensorFrame{});
  EXPECT_EQ(error_code(get_reply(a, encode_frame(epoch))),
            ErrorCode::kUnknownSession);
  // The re-hello opens a fresh session under the same id.
  EXPECT_EQ(get_reply(a, hello_frame(4, {0, 0}, 0.0)).type,
            FrameType::kReply);
  EXPECT_EQ(a.live_sessions(), 1u);
}

/// A scheme whose snapshot re-enters the server: serializing it submits
/// an epoch for its own session, i.e. from inside the exclusive section
/// extract_session holds while it serializes. The reply future is kept,
/// not waited on, so a regression fails the test instead of hanging it.
class ReentrantProbeScheme final : public schemes::LocalizationScheme {
 public:
  struct Probe {
    LocalizationServer* server{nullptr};
    std::optional<std::future<std::vector<std::uint8_t>>> reply;
  };

  ReentrantProbeScheme(Probe* probe, std::uint64_t sid)
      : probe_(probe), sid_(sid) {}

  std::string name() const override { return "Probe"; }
  schemes::SchemeFamily family() const override {
    return schemes::SchemeFamily::kOther;
  }
  void reset(const schemes::StartCondition&) override {}
  void update_into(const sim::SensorFrame&,
                   schemes::SchemeOutput& out) override {
    out.available = false;
  }
  void snapshot_into(offload::ByteWriter&,
                     const schemes::SnapshotContext&) const override {
    if (probe_->server == nullptr || probe_->reply.has_value()) return;
    Frame epoch;
    epoch.type = FrameType::kEpoch;
    epoch.session_id = sid_;
    epoch.payload = encode_epoch({}, sim::SensorFrame{});
    probe_->reply = probe_->server->submit(encode_frame(epoch));
  }

 private:
  Probe* probe_;
  std::uint64_t sid_;
};

TEST(Migrate, EpochArrivingDuringExtractionIsRefusedAndNeverRuns) {
  // An epoch routed to the source before a migration began can reach it
  // while extract_session serializes the session. It must be refused
  // (kUnknownSession, the re-hello signal) and never run: running it
  // would either race the serialization or advance state that has
  // already left for the target.
  ServerFixture fx;
  ReentrantProbeScheme::Probe probe;
  std::size_t served = 0;
  ServerConfig cfg;  // workers = 0: the whole interleaving is inline
  cfg.on_epoch = [&served](std::uint64_t, const core::EpochDecision&) {
    ++served;
  };
  const UnilocFactory build = fx.factory();
  LocalizationServer server(cfg, [&](std::uint64_t sid) {
    std::unique_ptr<core::Uniloc> uniloc = build(sid);
    uniloc->add_scheme(std::make_unique<ReentrantProbeScheme>(&probe, sid),
                       core::ErrorModel::constant(5.0, 2.0));
    return uniloc;
  });
  probe.server = &server;
  ASSERT_EQ(get_reply(server, hello_frame(4, {0, 0}, 0.0)).type,
            FrameType::kReply);

  ASSERT_TRUE(server.extract_session(4).has_value());
  ASSERT_TRUE(probe.reply.has_value());
  ASSERT_EQ(probe.reply->wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const DecodeResult reply = decode_frame(probe.reply->get());
  ASSERT_TRUE(reply.frame.has_value());
  EXPECT_EQ(error_code(*reply.frame), ErrorCode::kUnknownSession);
  EXPECT_EQ(served, 0u);
  EXPECT_EQ(server.live_sessions(), 0u);
}

// ----------------------------------------------------- loadgen + determinism

// ----------------------------------------------------- loadgen + determinism

LoadReport run_fleet(ServerFixture& fx, int workers, std::size_t walkers,
                     obs::MetricsRegistry* reg = nullptr) {
  ServerConfig cfg;
  cfg.workers = workers;
  LocalizationServer server(cfg, fx.factory(), reg);
  LoadGenConfig lg;
  lg.walkers = walkers;
  lg.max_epochs_per_walker = 30;
  lg.burst = 1;  // lockstep rounds: no backpressure, identical inputs
  LoadReport report = run_load(server, fx.office, lg, reg);
  server.shutdown();
  return report;
}

TEST(Server, InlineModeIsDeterministic) {
  ServerFixture fx;
  const LoadReport a = run_fleet(fx, /*workers=*/0, /*walkers=*/4);
  const LoadReport b = run_fleet(fx, /*workers=*/0, /*walkers=*/4);
  ASSERT_EQ(a.walkers.size(), b.walkers.size());
  EXPECT_GT(a.total_epochs, 0u);
  for (std::size_t i = 0; i < a.walkers.size(); ++i) {
    EXPECT_EQ(a.walkers[i].epochs_accepted, b.walkers[i].epochs_accepted);
    // Bit-reproducible: same seeds, same inline execution order.
    EXPECT_DOUBLE_EQ(a.walkers[i].mean_error_m, b.walkers[i].mean_error_m);
    EXPECT_DOUBLE_EQ(a.walkers[i].final_estimate.x,
                     b.walkers[i].final_estimate.x);
    EXPECT_DOUBLE_EQ(a.walkers[i].final_estimate.y,
                     b.walkers[i].final_estimate.y);
  }
}

TEST(Server, ThreadedResultsMatchInlineRun) {
  // The stress test of the strand design: with 4 workers racing over 6
  // sessions, every per-session outcome must be exactly the workers=0
  // result -- concurrency may reorder sessions, never corrupt one.
  ServerFixture fx;
  obs::MetricsRegistry reg;  // exercised concurrently under TSan
  const LoadReport inline_run = run_fleet(fx, /*workers=*/0, /*walkers=*/6);
  const LoadReport threaded = run_fleet(fx, /*workers=*/4, /*walkers=*/6, &reg);

  ASSERT_EQ(threaded.walkers.size(), inline_run.walkers.size());
  EXPECT_EQ(threaded.total_epochs, inline_run.total_epochs);
  EXPECT_EQ(threaded.backpressure_total, 0u);
  EXPECT_EQ(threaded.error_total, 0u);
  for (std::size_t i = 0; i < threaded.walkers.size(); ++i) {
    const WalkerOutcome& t = threaded.walkers[i];
    const WalkerOutcome& s = inline_run.walkers[i];
    EXPECT_EQ(t.session_id, s.session_id);
    EXPECT_EQ(t.epochs_accepted, s.epochs_accepted);
    EXPECT_DOUBLE_EQ(t.mean_error_m, s.mean_error_m) << "session " << i;
    EXPECT_DOUBLE_EQ(t.final_estimate.x, s.final_estimate.x);
    EXPECT_DOUBLE_EQ(t.final_estimate.y, s.final_estimate.y);
  }
  EXPECT_EQ(reg.counter("svc.rejected").value(), 0u);
  EXPECT_EQ(reg.histogram("svc.request_us").count(),
            threaded.total_epochs);
}

TEST(LoadGen, ChargesWireBytesIntoOffloadCounters) {
  ServerFixture fx;
  obs::MetricsRegistry reg;
  LocalizationServer server({}, fx.factory(), &reg);
  LoadGenConfig lg;
  lg.walkers = 2;
  lg.max_epochs_per_walker = 10;
  const LoadReport report = run_load(server, fx.office, lg, &reg);

  EXPECT_EQ(report.total_epochs, 20u);
  EXPECT_EQ(report.traffic.epochs, 20u);
  EXPECT_EQ(reg.counter("offload.uplink_bytes").value(),
            report.traffic.uplink_bytes);
  EXPECT_EQ(reg.counter("offload.downlink_bytes").value(),
            report.traffic.downlink_bytes);
  // Every reply is a fixed-size frame; uplink must include svc framing
  // (header + prefix) on top of the offload payload.
  EXPECT_EQ(report.traffic.downlink_bytes, 20u * reply_wire_bytes());
  EXPECT_DOUBLE_EQ(report.traffic.downlink_bytes_per_epoch(),
                   static_cast<double>(reply_wire_bytes()));
  EXPECT_GT(report.traffic.uplink_bytes_per_epoch(),
            static_cast<double>(kHeaderBytes + kEpochUplinkPrefixBytes));
}

// ---------------------------------------------------- live introspection

Frame status_request(StatusFormat format) {
  Frame f;
  f.type = FrameType::kStatus;
  f.payload = encode_status_request(format);
  return f;
}

/// Serve `epochs` frames on session 1 (and open an idle session 2).
void serve_some_epochs(LocalizationServer& server, ServerFixture& fx,
                       std::size_t epochs) {
  sim::WalkConfig wc;
  wc.seed = 21;
  sim::Walker walker(fx.office.place.get(), fx.office.radio.get(), 0, wc);
  offload::PhoneAgent phone;
  phone.reset(walker.start_heading());
  get_reply(server, hello_frame(1, walker.start_position(),
                                walker.start_heading()));
  get_reply(server, hello_frame(2, walker.start_position(),
                                walker.start_heading()));
  for (std::size_t i = 0; i < epochs && !walker.done(); ++i) {
    const sim::SensorFrame f = walker.step(true);
    Frame req;
    req.type = FrameType::kEpoch;
    req.session_id = 1;
    req.payload = encode_epoch(phone.reduce(f), f);
    ASSERT_EQ(get_reply(server, encode_frame(req)).type, FrameType::kReply);
  }
}

TEST(Server, StatusFrameServesJsonSnapshot) {
  ServerFixture fx;
  obs::MetricsRegistry reg;
  obs::SloMonitor slo({}, &reg);
  ServerConfig cfg;
  cfg.slo = &slo;
  LocalizationServer server(cfg, fx.factory(), &reg);
  serve_some_epochs(server, fx, 5);

  const Frame reply =
      get_reply(server, encode_frame(status_request(StatusFormat::kJson)));
  ASSERT_EQ(reply.type, FrameType::kReply);
  const std::string text(reply.payload.begin(), reply.payload.end());
  const std::optional<obs::JsonValue> doc = obs::parse_json(text);
  ASSERT_TRUE(doc.has_value() && doc->is_object()) << text;

  // The statusz schema (DESIGN.md section 13): server, sessions, slo,
  // metrics -- all present and structurally sound.
  const obs::JsonValue* srv = doc->find("server");
  ASSERT_NE(srv, nullptr);
  EXPECT_EQ(srv->find("live_sessions")->as_u64(), 2u);
  EXPECT_FALSE(srv->find("stopping")->boolean);
  const obs::JsonValue* pool = srv->find("pool");
  ASSERT_NE(pool, nullptr);
  EXPECT_NE(pool->find("workers"), nullptr);
  EXPECT_NE(pool->find("active_workers"), nullptr);
  EXPECT_NE(pool->find("queue_depth"), nullptr);

  const obs::JsonValue* sessions = doc->find("sessions");
  ASSERT_NE(sessions, nullptr);
  ASSERT_EQ(sessions->items.size(), 2u);  // ascending id
  EXPECT_EQ(sessions->items[0].find("id")->as_u64(), 1u);
  EXPECT_EQ(sessions->items[0].find("epochs_served")->as_u64(), 5u);
  EXPECT_EQ(sessions->items[1].find("id")->as_u64(), 2u);
  EXPECT_EQ(sessions->items[1].find("epochs_served")->as_u64(), 0u);
  EXPECT_NE(sessions->items[0].find("queue_depth"), nullptr);
  EXPECT_NE(sessions->items[0].find("age_us"), nullptr);

  const obs::JsonValue* slo_obj = doc->find("slo");
  ASSERT_NE(slo_obj, nullptr);
  ASSERT_TRUE(slo_obj->is_object());  // attached -> object, not null
  EXPECT_EQ(slo_obj->find("samples")->as_u64(), 5u);
  EXPECT_FALSE(slo_obj->find("breached")->boolean);

  const obs::JsonValue* metrics = doc->find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_NE(metrics->find("counters"), nullptr);
  EXPECT_NE(metrics->find("counters")->find("svc.accepted"), nullptr);
  EXPECT_EQ(reg.counter("svc.status_requests").value(), 1u);
}

TEST(Server, StatusFrameServesPrometheusText) {
  ServerFixture fx;
  obs::MetricsRegistry reg;
  obs::SloMonitor slo({}, &reg);
  ServerConfig cfg;
  cfg.slo = &slo;
  LocalizationServer server(cfg, fx.factory(), &reg);
  serve_some_epochs(server, fx, 3);

  const Frame reply = get_reply(
      server, encode_frame(status_request(StatusFormat::kPrometheus)));
  ASSERT_EQ(reply.type, FrameType::kReply);
  const std::string text(reply.payload.begin(), reply.payload.end());

  // Registry instruments render through obs::prometheus_text...
  EXPECT_NE(text.find("# TYPE uniloc_svc_accepted counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE uniloc_svc_request_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("uniloc_svc_request_us_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  // ...followed by server + per-session gauges.
  EXPECT_NE(text.find("uniloc_server_live_sessions 2"), std::string::npos);
  EXPECT_NE(text.find("uniloc_server_stopping 0"), std::string::npos);
  EXPECT_NE(text.find("uniloc_session_epochs_served{session=\"1\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("uniloc_session_epochs_served{session=\"2\"} 0"),
            std::string::npos);
  // The SLO gauges arrive via the registry (slo.* instruments).
  EXPECT_NE(text.find("uniloc_slo_latency_burn_rate"), std::string::npos);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
}

TEST(Server, MalformedStatusRequestIsRejected) {
  ServerFixture fx;
  obs::MetricsRegistry reg;
  LocalizationServer server({}, fx.factory(), &reg);

  const std::vector<std::vector<std::uint8_t>> bad = {
      {},      // empty payload
      {9},     // unknown format byte
      {0, 0},  // over-long payload
  };
  for (const std::vector<std::uint8_t>& payload : bad) {
    Frame req;
    req.type = FrameType::kStatus;
    req.payload = payload;
    const Frame reply = get_reply(server, encode_frame(req));
    EXPECT_EQ(reply.type, FrameType::kError);
    EXPECT_EQ(error_code(reply), ErrorCode::kMalformed);
  }
  EXPECT_EQ(reg.counter("svc.malformed").value(), 3u);
  EXPECT_EQ(reg.counter("svc.status_requests").value(), 0u);
}

// ------------------------------------------------------- span tracing

TEST(Server, EpochSpanTreeIsRootedAndComplete) {
  // Deterministic inline mode: every served epoch must emit exactly one
  // rooted span tree -- svc.epoch over {queue_wait, decode, locate, net,
  // encode}, with the core-layer scheme/fusion spans parented under
  // svc.locate via the ambient TraceContext.
  ServerFixture fx;
  obs::VectorSpanSink sink;
  obs::SpanTracer tracer(&sink);
  ServerConfig cfg;
  cfg.tracer = &tracer;
  LocalizationServer server(cfg, fx.factory(), nullptr);
  constexpr std::size_t kEpochs = 4;
  serve_some_epochs(server, fx, kEpochs);

  EXPECT_EQ(tracer.spans_opened(), tracer.spans_closed());

  std::map<std::uint64_t, std::vector<obs::SpanEvent>> traces;
  for (const obs::SpanEvent& ev : sink.events()) {
    traces[ev.trace_id].push_back(ev);
  }
  ASSERT_EQ(traces.size(), kEpochs);  // hello/bye emit no spans

  for (const auto& [trace_id, spans] : traces) {
    std::set<std::uint64_t> ids;
    for (const obs::SpanEvent& ev : spans) ids.insert(ev.span_id);

    std::uint64_t root_id = 0, locate_id = 0;
    std::size_t roots = 0;
    for (const obs::SpanEvent& ev : spans) {
      if (ev.parent_id == 0) {
        ++roots;
        root_id = ev.span_id;
        EXPECT_EQ(ev.name, "svc.epoch");
      } else {
        EXPECT_EQ(ids.count(ev.parent_id), 1u)
            << ev.name << " orphaned in trace " << trace_id;
      }
      if (ev.name == "svc.locate") locate_id = ev.span_id;
      EXPECT_EQ(ev.session_id, 1u);
    }
    ASSERT_EQ(roots, 1u);
    ASSERT_NE(locate_id, 0u);

    // The fixed svc stages all hang off the root.
    std::set<std::string> svc_children;
    std::set<std::string> core_names;
    for (const obs::SpanEvent& ev : spans) {
      if (ev.category == "svc" && ev.parent_id == root_id) {
        svc_children.insert(ev.name);
      }
      if (ev.category == "core") {
        EXPECT_EQ(ev.parent_id, locate_id) << ev.name;
        core_names.insert(ev.name);
      }
    }
    EXPECT_EQ(svc_children,
              (std::set<std::string>{"svc.queue_wait", "svc.decode",
                                     "svc.locate", "svc.encode"}));
    // One span per registered scheme plus the fusion span.
    EXPECT_EQ(core_names.count("core.fuse"), 1u);
    EXPECT_GE(core_names.size(), 2u);
  }
}

TEST(Server, FlightRecorderCapturesServedEpochs) {
  ServerFixture fx;
  obs::FlightRecorder flight(16);
  ServerConfig cfg;
  cfg.flight = &flight;
  LocalizationServer server(cfg, fx.factory(), nullptr);
  constexpr std::size_t kEpochs = 5;
  serve_some_epochs(server, fx, kEpochs);

  // Session 1's ring opens with the hello, then one kServerEpoch
  // decision per served epoch with the scheme choice and tau snapshot.
  const std::vector<obs::FlightEvent> events = flight.session_events(1);
  ASSERT_EQ(events.size(), kEpochs + 1);
  EXPECT_EQ(events.front().kind, obs::FlightKind::kHello);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].kind, obs::FlightKind::kServerEpoch);
    EXPECT_EQ(events[i].epoch, i - 1);
    EXPECT_GE(events[i].a, -1);  // scheme index (-1 = none selected)
    EXPECT_GE(events[i].x, 0.0);  // tau
  }
  // A malformed epoch lands as kError in the same session's ring.
  Frame bad_epoch;
  bad_epoch.type = FrameType::kEpoch;
  bad_epoch.session_id = 1;
  bad_epoch.payload = {9, 9, 9};
  const Frame reply = get_reply(server, encode_frame(bad_epoch));
  EXPECT_EQ(reply.type, FrameType::kError);
  const std::vector<obs::FlightEvent> after = flight.session_events(1);
  ASSERT_EQ(after.size(), kEpochs + 2);
  EXPECT_EQ(after.back().kind, obs::FlightKind::kError);
}

}  // namespace
}  // namespace uniloc::svc
