#include "svc/checkpoint.h"

#include "svc/session_manager.h"

namespace uniloc::svc {

void write_snapshot_header(offload::ByteWriter& w, std::uint8_t version) {
  w.put_u32(kSnapshotMagic);
  w.put_u8(version);
}

bool check_snapshot_header(offload::ByteReader& r, std::uint8_t& version) {
  std::uint32_t magic;
  if (!r.get_u32(magic) || magic != kSnapshotMagic) return false;
  if (!r.get_u8(version)) return false;
  return version == kSnapshotVersion || version == kSnapshotVersionQuantized;
}

bool read_session_record_header(offload::ByteReader& r,
                                SessionRecordHeader& out) {
  if (!r.get_u64(out.id) || !r.get_u64(out.last_active_us) ||
      !r.get_u64(out.epochs_served) || !r.get_u32(out.payload_len)) {
    return false;
  }
  return out.payload_len <= r.remaining();
}

void write_session_record(offload::ByteWriter& w, Session& session,
                          bool quantize) {
  write_session_record(
      w, session.id(), session.last_active_us(),
      static_cast<std::uint64_t>(session.epochs_served()),
      [&](offload::ByteWriter& out) {
        session.uniloc().snapshot_into(out, quantize);
      });
}

}  // namespace uniloc::svc
