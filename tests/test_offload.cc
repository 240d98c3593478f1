#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numbers>
#include <random>
#include <string_view>
#include <vector>

#include "core/runner.h"
#include "core/trainer.h"
#include "offload/crc32.h"
#include "offload/session.h"
#include "testing_util.h"

namespace uniloc::offload {
namespace {

// ---------------------------------------------------------------- payloads

TEST(StepPayload, RoundTripQuantizationError) {
  for (double h = -3.1; h <= 3.1; h += 0.37) {
    for (double d = 0.0; d <= 3.9; d += 0.53) {
      const StepPayload p = StepPayload::encode(h, d);
      EXPECT_NEAR(geo::angle_diff(p.heading(), h), 0.0, 1e-3);
      EXPECT_NEAR(p.distance(), d, 1e-3);
    }
  }
}

TEST(StepPayload, IsFourBytes) {
  EXPECT_EQ(StepPayload::kBytes, 4u);  // the paper's "four bytes"
  EXPECT_EQ(sizeof(StepPayload::heading_q) + sizeof(StepPayload::distance_q),
            4u);
}

TEST(StepPayload, ClampsDistance) {
  const StepPayload p = StepPayload::encode(0.0, 100.0);
  EXPECT_NEAR(p.distance(), StepPayload::kMaxDistance, 1e-6);
  const StepPayload n = StepPayload::encode(0.0, -5.0);
  EXPECT_NEAR(n.distance(), 0.0, 1e-6);
}

TEST(StepPayload, HeadingWrap) {
  const StepPayload p = StepPayload::encode(4.0 * std::numbers::pi + 0.5, 1.0);
  EXPECT_NEAR(geo::angle_diff(p.heading(), 0.5), 0.0, 1e-3);
}

TEST(ScanPayload, QuantizesToHalfDb) {
  const ScanPayload p =
      ScanPayload::encode({{1, -63.26}, {2, -90.74}, {3, -40.1}});
  ASSERT_EQ(p.readings.size(), 3u);
  EXPECT_NEAR(p.readings[0].rssi_dbm, -63.5, 0.26);
  for (const sim::ApReading& r : p.readings) {
    const double steps = (r.rssi_dbm + 127.5) * 2.0;
    EXPECT_NEAR(steps, std::round(steps), 1e-9);  // exact half-dB grid
  }
}

TEST(ScanPayload, ByteCount) {
  const ScanPayload p = ScanPayload::encode({{1, -60.0}, {2, -70.0}});
  EXPECT_EQ(p.bytes(), 2u + 3u * 2u);
  EXPECT_EQ(ScanPayload::encode({}).bytes(), 2u);
}

TEST(GpsPayload, CentimeterResolution) {
  sim::GpsFix fix;
  fix.pos = {1.3483123456, 103.6831123456};
  fix.hdop = 1.234;
  fix.num_satellites = 9;
  const GpsPayload p = GpsPayload::encode(fix);
  EXPECT_NEAR(p.pos.lat_deg, fix.pos.lat_deg, 1e-7);
  EXPECT_NEAR(p.hdop, 1.2, 1e-9);
  EXPECT_EQ(p.num_satellites, 9);
}

TEST(UplinkFrame, BytesSumComponents) {
  UplinkFrame f;
  EXPECT_EQ(f.bytes(), 0u);
  f.step = StepPayload::encode(0.0, 0.7);
  f.wifi = ScanPayload::encode({{1, -60.0}});
  EXPECT_EQ(f.bytes(), 4u + 5u);
  f.gps = GpsPayload{};
  EXPECT_EQ(f.bytes(), 4u + 5u + GpsPayload::kBytes);
}

TEST(DownlinkFrame, CentimeterRoundTrip) {
  const DownlinkFrame f = DownlinkFrame::encode({123.456789, -9.876543});
  EXPECT_NEAR(f.decoded().x, 123.46, 1e-9);
  EXPECT_NEAR(f.decoded().y, -9.88, 1e-9);
  EXPECT_EQ(DownlinkFrame::kBytes, 8u);
}

// ------------------------------------------------------------ byte codecs

UplinkFrame full_uplink() {
  UplinkFrame f;
  f.step = StepPayload::encode(1.25, 0.8);
  f.wifi = ScanPayload::encode({{3, -61.2}, {9, -74.9}, {200, -88.0}});
  f.cell = ScanPayload::encode({{1001, -95.5}});
  sim::GpsFix fix;
  fix.pos = {1.3483123, 103.6831123};
  fix.hdop = 1.2;
  fix.num_satellites = 9;
  f.gps = GpsPayload::encode(fix);
  return f;
}

TEST(UplinkCodec, SerializedSizeIsOverheadPlusBytes) {
  const UplinkFrame f = full_uplink();
  EXPECT_EQ(serialize(f).size(), kUplinkOverheadBytes + f.bytes());
  EXPECT_EQ(serialize(UplinkFrame{}).size(), kUplinkOverheadBytes);
}

TEST(UplinkCodec, RoundTripsAllSections) {
  const UplinkFrame f = full_uplink();
  const std::optional<UplinkFrame> back = parse_uplink(serialize(f));
  ASSERT_TRUE(back.has_value());
  ASSERT_TRUE(back->step.has_value());
  EXPECT_EQ(back->step->heading_q, f.step->heading_q);
  EXPECT_EQ(back->step->distance_q, f.step->distance_q);
  ASSERT_TRUE(back->wifi.has_value());
  ASSERT_EQ(back->wifi->readings.size(), 3u);
  EXPECT_EQ(back->wifi->readings[0].id, 3);
  // ScanPayload::encode already quantized to the half-dB wire grid, so
  // the byte codec round-trips the values exactly.
  EXPECT_DOUBLE_EQ(back->wifi->readings[0].rssi_dbm,
                   f.wifi->readings[0].rssi_dbm);
  ASSERT_TRUE(back->cell.has_value());
  EXPECT_EQ(back->cell->readings[0].id, 1001);
  ASSERT_TRUE(back->gps.has_value());
  EXPECT_NEAR(back->gps->pos.lat_deg, 1.3483123, 1e-7);
  EXPECT_NEAR(back->gps->pos.lon_deg, 103.6831123, 1e-7);
  EXPECT_DOUBLE_EQ(back->gps->hdop, 1.2);
  EXPECT_EQ(back->gps->num_satellites, 9);
}

TEST(UplinkCodec, EmptyFrameRoundTrips) {
  const std::optional<UplinkFrame> back = parse_uplink(serialize(UplinkFrame{}));
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(back->step.has_value());
  EXPECT_FALSE(back->wifi.has_value());
  EXPECT_FALSE(back->cell.has_value());
  EXPECT_FALSE(back->gps.has_value());
}

TEST(UplinkCodec, EveryTruncationIsRejected) {
  const std::vector<std::uint8_t> full = serialize(full_uplink());
  for (std::size_t n = 0; n < full.size(); ++n) {
    const std::vector<std::uint8_t> cut(full.begin(),
                                        full.begin() + static_cast<long>(n));
    EXPECT_FALSE(parse_uplink(cut).has_value()) << "prefix length " << n;
  }
  EXPECT_TRUE(parse_uplink(full).has_value());
}

TEST(UplinkCodec, RejectsUnknownSectionBits) {
  std::vector<std::uint8_t> buf = serialize(UplinkFrame{});
  buf[0] = 0xF0;  // bits the codec does not define
  EXPECT_FALSE(parse_uplink(buf).has_value());
}

TEST(UplinkCodec, RejectsScanCountBeyondBuffer) {
  ByteWriter w;
  w.put_u8(1 << 1);  // wifi section only
  w.put_u16(1000);   // promises 3000 bytes of readings...
  w.put_u16(1);      // ...but carries 3
  w.put_u8(100);
  EXPECT_FALSE(parse_uplink(w.take()).has_value());
}

TEST(UplinkCodec, RejectsTrailingGarbage) {
  std::vector<std::uint8_t> buf = serialize(full_uplink());
  buf.push_back(0xAB);
  EXPECT_FALSE(parse_uplink(buf).has_value());
}

TEST(DownlinkCodec, RoundTripsAndRejectsTruncation) {
  const DownlinkFrame f = DownlinkFrame::encode({123.456, -9.87});
  const std::vector<std::uint8_t> bytes = serialize(f);
  EXPECT_EQ(bytes.size(), DownlinkFrame::kBytes);
  const std::optional<DownlinkFrame> back = parse_downlink(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_DOUBLE_EQ(back->position.x, f.position.x);
  EXPECT_DOUBLE_EQ(back->position.y, f.position.y);
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + static_cast<long>(n));
    EXPECT_FALSE(parse_downlink(cut).has_value());
  }
}

TEST(RssiQuantization, RoundTripsOnHalfDbGrid) {
  for (int q = 0; q <= 255; ++q) {
    EXPECT_EQ(quantize_rssi(dequantize_rssi(static_cast<std::uint8_t>(q))),
              q);
  }
  EXPECT_EQ(quantize_rssi(-300.0), 0);   // clamped, no wraparound
  EXPECT_EQ(quantize_rssi(50.0), 255);
}

// ----------------------------------------------------------------- session

TEST(OffloadSession, PhoneReducesFrames) {
  const core::Deployment& office = testing_util::office_deployment();
  sim::WalkConfig wc;
  wc.seed = 5;
  sim::Walker walker(office.place.get(), office.radio.get(), 0, wc);
  PhoneAgent phone;
  phone.reset(walker.start_heading());
  std::size_t with_step = 0, total = 0;
  while (!walker.done()) {
    const sim::SensorFrame f = walker.step(false);
    const UplinkFrame up = phone.reduce(f);
    ++total;
    if (up.step.has_value()) {
      ++with_step;
      EXPECT_GT(up.step->distance(), 0.0);
    }
    // Indoors without GPS: no GPS payload ever.
    EXPECT_FALSE(up.gps.has_value());
    EXPECT_GT(up.bytes(), 0u);
    EXPECT_LT(up.bytes(), 200u);  // compact by construction
  }
  // Most epochs carry a step update.
  EXPECT_GT(static_cast<double>(with_step) / static_cast<double>(total), 0.7);
}

TEST(OffloadSession, EndToEndTrafficIsSmall) {
  const core::TrainedModels& models = testing_util::standard_models(100);
  const core::Deployment& office = testing_util::office_deployment();
  core::Uniloc uniloc = core::make_uniloc(office, models);
  sim::WalkConfig wc;
  wc.seed = 6;
  sim::Walker walker(office.place.get(), office.radio.get(), 0, wc);
  const TrafficStats stats = run_offloaded_walk(uniloc, walker);
  ASSERT_GT(stats.epochs, 100u);
  // Tens of bytes per epoch, not kilobytes: the point of pre-processing
  // on the phone (50 Hz raw IMU would be ~27 samples * 3 sensors * 4+
  // bytes per epoch).
  EXPECT_LT(stats.uplink_bytes_per_epoch(), 120.0);
  EXPECT_GT(stats.uplink_bytes_per_epoch(), 4.0);
  EXPECT_EQ(stats.downlink_bytes, stats.epochs * DownlinkFrame::kBytes);
}

TEST(OffloadSession, ServerReturnsFusedCoordinate) {
  const core::TrainedModels& models = testing_util::standard_models(100);
  const core::Deployment& office = testing_util::office_deployment();
  core::Uniloc uniloc = core::make_uniloc(office, models);
  sim::WalkConfig wc;
  wc.seed = 7;
  sim::Walker walker(office.place.get(), office.radio.get(), 0, wc);
  uniloc.reset({walker.start_position(), walker.start_heading()});
  ServerAgent server(&uniloc);
  const sim::SensorFrame f = walker.step(false);
  core::EpochDecision d;
  const DownlinkFrame reply = server.handle(f, &d);
  EXPECT_NEAR(reply.decoded().x, d.uniloc2.x, 0.01);
  EXPECT_NEAR(reply.decoded().y, d.uniloc2.y, 0.01);
}

// ------------------------------------------------------------- CRC-32

/// The definition, one bit at a time: the reference the slice-by-8
/// tables must reproduce.
std::uint32_t bitwise_crc32(const std::uint8_t* data, std::size_t n,
                            std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

TEST(Crc32, KnownAnswer) {
  constexpr std::string_view kCheck = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(kCheck.data()),
                  kCheck.size()),
            0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, SliceBy8MatchesTheBitwiseDefinition) {
  // Every length 0..257 at every start offset 0..7: covers each
  // alignment of the 8-byte blocks and every tail length.
  const std::vector<std::uint8_t> buf = random_bytes(257 + 8, 1);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 257; ++len) {
      ASSERT_EQ(crc32(buf.data() + off, len),
                bitwise_crc32(buf.data() + off, len))
          << "offset " << off << " length " << len;
      ASSERT_EQ(crc32(buf.data() + off, len, 0x12345678u),
                bitwise_crc32(buf.data() + off, len, 0x12345678u))
          << "seeded, offset " << off << " length " << len;
    }
  }
  const std::vector<std::uint8_t> big = random_bytes(1u << 20, 2);
  EXPECT_EQ(crc32(big.data(), big.size()),
            bitwise_crc32(big.data(), big.size()));
}

TEST(Crc32, SeedChainsPartialUpdates) {
  const std::vector<std::uint8_t> buf = random_bytes(1000, 3);
  const std::uint32_t whole = crc32(buf.data(), buf.size());
  for (const std::size_t k : {0u, 1u, 7u, 8u, 9u, 500u, 993u, 999u, 1000u}) {
    EXPECT_EQ(crc32(buf.data() + k, buf.size() - k, crc32(buf.data(), k)),
              whole)
        << "split at " << k;
  }
}

}  // namespace
}  // namespace uniloc::offload
