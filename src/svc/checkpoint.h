// Versioned session-snapshot format.
//
// A snapshot is the full serialized state of a LocalizationServer's
// session population, framed so that a restorer can validate it before
// touching any session state (DESIGN.md section 12):
//
//   u32  magic   'UCKP'
//   u8   version (1 lossless, 2 quantized; other versions are rejected)
//   u64  accepted_since_scan   (eviction-scan cadence counter)
//   u32  session count
//   per session, in ascending id order:
//     u64  session id
//     u64  last_active_us
//     u64  epochs_served
//     u32  payload length
//     ...  core::Uniloc payload (core/uniloc.cc), exactly `length` bytes
//
// The per-session record is also the unit of the kMigrate payload and of
// the delta-chain waves (svc/delta.h); write_session_record is its one
// writer and read_session_record_header its one reader.
//
// The codec is deliberately hostile-input safe: every length is checked
// against the remaining buffer, scheme payloads are name-tagged and
// framing-verified, and the mt19937 read position is range-checked before
// it ever indexes the engine (stats/rng_codec.h). A corrupted or
// truncated snapshot yields `false` from restore, never UB.
#pragma once

#include <cstdint>

#include "offload/bytes.h"

namespace uniloc::svc {

class Session;  // svc/session_manager.h

/// 'UCKP' little-endian ("Uniloc ChecKPoint").
inline constexpr std::uint32_t kSnapshotMagic = 0x504B4355u;
/// Version 1: per-session payloads carry full f64 particle state.
inline constexpr std::uint8_t kSnapshotVersion = 1;
/// Version 2: per-session payloads use the quantized particle codec
/// (fixed-point u16 positions/headings within the venue bbox; see
/// filter/particle_filter.h). Restore-then-resnapshot is byte-stable,
/// but the dequantized state differs from the original by up to half a
/// grid step -- v2 is for the durable checkpoint chain, never for live
/// migration (which must be bit-lossless).
inline constexpr std::uint8_t kSnapshotVersionQuantized = 2;

/// Hard cap on the decoded session count: a 4-byte count field must not
/// let a hostile snapshot drive a multi-gigabyte allocation loop.
inline constexpr std::uint32_t kMaxSnapshotSessions = 1u << 20;

/// Hard cap on a checkpoint wave file's size (4 GiB): load_wave_files
/// skips anything larger before allocating a byte of it, so a hostile or
/// corrupt file cannot drive an unbounded read loop.
inline constexpr std::uint64_t kMaxCheckpointFileBytes = 1ull << 32;

/// Write the snapshot header (magic + version). `version` must be
/// kSnapshotVersion or kSnapshotVersionQuantized.
void write_snapshot_header(offload::ByteWriter& w,
                           std::uint8_t version = kSnapshotVersion);

/// Consume and validate the header; false on bad magic or an unknown
/// version. On success `version` holds the snapshot's payload codec
/// version (callers thread it into Uniloc::restore_from).
bool check_snapshot_header(offload::ByteReader& r, std::uint8_t& version);

/// The fixed-size prefix of one per-session record. Shared by the full
/// server snapshot, the kMigrate wire payload (exactly one record after
/// the snapshot header), and the shard-recovery splitter that re-homes a
/// dead shard's checkpoint session by session.
struct SessionRecordHeader {
  std::uint64_t id{0};
  std::uint64_t last_active_us{0};
  std::uint64_t epochs_served{0};
  std::uint32_t payload_len{0};
};

/// Consume one record header and validate `payload_len` against the
/// remaining buffer; on success the reader is positioned at the first
/// byte of the core::Uniloc payload. False on truncation or an
/// impossible length -- the reader position is then unspecified.
bool read_session_record_header(offload::ByteReader& r,
                                SessionRecordHeader& out);

/// Append one session record: the SessionRecordHeader fields, then the
/// bytes `write_payload(w)` appends, with payload_len patched to their
/// count.
template <typename WritePayload>
void write_session_record(offload::ByteWriter& w, std::uint64_t id,
                          std::uint64_t last_active_us,
                          std::uint64_t epochs_served,
                          WritePayload&& write_payload) {
  w.put_u64(id);
  w.put_u64(last_active_us);
  w.put_u64(epochs_served);
  const std::size_t len_pos = w.size();
  w.put_u32(0);
  const std::size_t start = w.size();
  write_payload(w);
  w.patch_u32(len_pos, static_cast<std::uint32_t>(w.size() - start));
}

/// Append a live session's record: its bookkeeping and its core::Uniloc
/// payload (`quantize` selects payload version 2). Call with the
/// session's strand held (Session::run_exclusive) so the record is one
/// consistent post-epoch state.
void write_session_record(offload::ByteWriter& w, Session& session,
                          bool quantize);

}  // namespace uniloc::svc
