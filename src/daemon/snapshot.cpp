#include "daemon/snapshot.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iterator>

#include "hal/crc32.hpp"
#include "proto/serialize.hpp"
#include "proto/wire.hpp"

namespace surfos::daemon {

namespace {

// File header, integers little-endian: magic "SFSN", format version (u32),
// CRC-32 of the payload (u32). The payload, the DaemonSnapshot TLV stream,
// is the rest of the file, so a truncated file fails the checksum.
constexpr std::uint8_t kFileMagic[4] = {'S', 'F', 'S', 'N'};
constexpr std::uint32_t kFileVersion = 1;
constexpr std::size_t kHeaderBytes = 4 + 4 + 4;

namespace tag {
constexpr std::uint16_t kVersion = 1;

// DaemonSnapshot
constexpr std::uint16_t kSimNowUs = 2;
constexpr std::uint16_t kEpochs = 3;
constexpr std::uint16_t kSession = 4;   // repeated, nested SessionRecord
constexpr std::uint16_t kQueued = 5;    // repeated, nested QueuedRecord
constexpr std::uint16_t kSeq = 6;       // repeated, nested SeqRecord
constexpr std::uint16_t kEndpoint = 7;  // repeated, nested EndpointRecord
constexpr std::uint16_t kLastReport = 8;

// SessionRecord / QueuedRecord / SeqRecord / EndpointRecord
constexpr std::uint16_t kSiteId = 2;
constexpr std::uint16_t kAppId = 3;
constexpr std::uint16_t kRunning = 4;
constexpr std::uint16_t kTraceId = 5;
constexpr std::uint16_t kDemand = 6;  // nested AppDemand
constexpr std::uint16_t kPriority = 7;
constexpr std::uint16_t kTraceSeq = 3;
constexpr std::uint16_t kEndpointId = 3;
constexpr std::uint16_t kKind = 4;
constexpr std::uint16_t kPosX = 5;
constexpr std::uint16_t kPosY = 6;
constexpr std::uint16_t kPosZ = 7;
}  // namespace tag

using proto::read_field;
using proto::read_record;
using proto::Tlv;

void session_to_wire(const SessionRecord& record,
                     std::vector<std::uint8_t>& out) {
  proto::TlvWriter w(out);
  w.put_u16(tag::kVersion, proto::kStructVersion);
  w.put_string(tag::kSiteId, record.site_id);
  w.put_string(tag::kAppId, record.app_id);
  w.put_u8(tag::kRunning, record.running ? 1 : 0);
  w.put_u64(tag::kTraceId, record.trace_id);
  w.nest(tag::kDemand,
         [&](auto& body) { proto::to_wire(record.demand, body); });
}

Result<void> session_from_wire(std::span<const std::uint8_t> bytes,
                               SessionRecord& out) {
  return read_record(bytes, out, "SessionRecord", true, [&](const Tlv& tlv) {
    switch (tlv.tag) {
      case tag::kSiteId: return read_field(tlv, out.site_id);
      case tag::kAppId: return read_field(tlv, out.app_id);
      case tag::kRunning: return read_field(tlv, out.running);
      case tag::kTraceId: return read_field(tlv, out.trace_id);
      case tag::kDemand: return proto::from_wire(tlv.value, out.demand).ok();
      default: return true;  // unknown tag: skip
    }
  });
}

void queued_to_wire(const QueuedRecord& record,
                    std::vector<std::uint8_t>& out) {
  proto::TlvWriter w(out);
  w.put_u16(tag::kVersion, proto::kStructVersion);
  w.put_string(tag::kSiteId, record.site_id);
  w.put_string(tag::kAppId, record.app_id);
  w.put_u64(tag::kPriority, record.priority);
  w.nest(tag::kDemand,
         [&](auto& body) { proto::to_wire(record.demand, body); });
}

Result<void> queued_from_wire(std::span<const std::uint8_t> bytes,
                              QueuedRecord& out) {
  return read_record(bytes, out, "QueuedRecord", true, [&](const Tlv& tlv) {
    switch (tlv.tag) {
      case tag::kSiteId: return read_field(tlv, out.site_id);
      case tag::kAppId: return read_field(tlv, out.app_id);
      case tag::kPriority: return read_field(tlv, out.priority);
      case tag::kDemand: return proto::from_wire(tlv.value, out.demand).ok();
      default: return true;
    }
  });
}

void seq_to_wire(const SeqRecord& record, std::vector<std::uint8_t>& out) {
  proto::TlvWriter w(out);
  w.put_u16(tag::kVersion, proto::kStructVersion);
  w.put_string(tag::kSiteId, record.site_id);
  w.put_u64(tag::kTraceSeq, record.trace_seq);
}

Result<void> seq_from_wire(std::span<const std::uint8_t> bytes,
                           SeqRecord& out) {
  return read_record(bytes, out, "SeqRecord", true, [&](const Tlv& tlv) {
    switch (tlv.tag) {
      case tag::kSiteId: return read_field(tlv, out.site_id);
      case tag::kTraceSeq: return read_field(tlv, out.trace_seq);
      default: return true;
    }
  });
}

void endpoint_to_wire(const EndpointRecord& record,
                      std::vector<std::uint8_t>& out) {
  proto::TlvWriter w(out);
  w.put_u16(tag::kVersion, proto::kStructVersion);
  w.put_string(tag::kSiteId, record.site_id);
  w.put_string(tag::kEndpointId, record.endpoint_id);
  w.put_u8(tag::kKind, record.kind);
  w.put_f64(tag::kPosX, record.x);
  w.put_f64(tag::kPosY, record.y);
  w.put_f64(tag::kPosZ, record.z);
}

Result<void> endpoint_from_wire(std::span<const std::uint8_t> bytes,
                                EndpointRecord& out) {
  return read_record(bytes, out, "EndpointRecord", true, [&](const Tlv& tlv) {
    switch (tlv.tag) {
      case tag::kSiteId: return read_field(tlv, out.site_id);
      case tag::kEndpointId: return read_field(tlv, out.endpoint_id);
      case tag::kKind: return read_field(tlv, out.kind);
      case tag::kPosX: return read_field(tlv, out.x);
      case tag::kPosY: return read_field(tlv, out.y);
      case tag::kPosZ: return read_field(tlv, out.z);
      default: return true;
    }
  });
}

}  // namespace

void to_wire(const DaemonSnapshot& snapshot, std::vector<std::uint8_t>& out) {
  proto::TlvWriter w(out);
  w.put_u16(tag::kVersion, proto::kStructVersion);
  w.put_u64(tag::kSimNowUs, snapshot.sim_now_us);
  w.put_u64(tag::kEpochs, snapshot.epochs);
  w.nest_each(tag::kSession, snapshot.sessions, session_to_wire);
  w.nest_each(tag::kQueued, snapshot.queued, queued_to_wire);
  w.nest_each(tag::kSeq, snapshot.trace_seqs, seq_to_wire);
  w.nest_each(tag::kEndpoint, snapshot.endpoints, endpoint_to_wire);
  w.put_bytes(tag::kLastReport, snapshot.last_report_wire);
}

Result<void> from_wire(std::span<const std::uint8_t> bytes,
                       DaemonSnapshot& out) {
  return read_record(bytes, out, "DaemonSnapshot", true, [&](const Tlv& tlv) {
    switch (tlv.tag) {
      case tag::kSimNowUs: return read_field(tlv, out.sim_now_us);
      case tag::kEpochs: return read_field(tlv, out.epochs);
      case tag::kSession:
        return session_from_wire(tlv.value, out.sessions.emplace_back()).ok();
      case tag::kQueued:
        return queued_from_wire(tlv.value, out.queued.emplace_back()).ok();
      case tag::kSeq:
        return seq_from_wire(tlv.value, out.trace_seqs.emplace_back()).ok();
      case tag::kEndpoint:
        return endpoint_from_wire(tlv.value, out.endpoints.emplace_back())
            .ok();
      case tag::kLastReport:
        out.last_report_wire.assign(tlv.value.begin(), tlv.value.end());
        return true;
      default: return true;  // forward compat: skip unknown tags
    }
  });
}

Result<std::uint64_t> save_snapshot_file(const DaemonSnapshot& snapshot,
                                         const std::string& path) {
  const std::vector<std::uint8_t> payload = proto::to_wire(snapshot);
  std::vector<std::uint8_t> bytes(std::begin(kFileMagic), std::end(kFileMagic));
  bytes.reserve(kHeaderBytes + payload.size());
  proto::append_le(bytes, kFileVersion, 4);
  proto::append_le(bytes, hal::crc32(payload), 4);
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return make_error(ErrorCode::kIoError,
                      "snapshot: cannot open " + tmp + ": " +
                          std::strerror(errno));
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), file);
  // Flush and fsync before the rename: a crash after it must find the new
  // bytes on disk, not an empty file under the final name.
  const bool synced =
      std::fflush(file) == 0 && ::fsync(::fileno(file)) == 0;
  const bool closed = std::fclose(file) == 0;
  if (written != bytes.size() || !synced || !closed) {
    std::remove(tmp.c_str());
    return make_error(ErrorCode::kIoError,
                      "snapshot: short write or fsync failure on " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return make_error(ErrorCode::kIoError,
                      "snapshot: rename to " + path + " failed: " +
                          std::strerror(errno));
  }
  return static_cast<std::uint64_t>(bytes.size());
}

Result<DaemonSnapshot> load_snapshot_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return make_error(ErrorCode::kIoError,
                      "snapshot: cannot open " + path + ": " +
                          std::strerror(errno));
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[4096];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof chunk, file)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    return make_error(ErrorCode::kIoError, "snapshot: read of " + path +
                                               " failed");
  }
  // Magic, version and checksum are all checked before any decoding.
  const auto damaged = [&](const char* what) {
    return make_error(ErrorCode::kMalformedFrame,
                      std::string("snapshot: ") + what + " in " + path);
  };
  if (bytes.size() < kHeaderBytes) return damaged("truncated header");
  if (!std::equal(std::begin(kFileMagic), std::end(kFileMagic),
                  bytes.begin())) {
    return damaged("bad magic number");
  }
  if (proto::read_le(bytes, 4, 4) != kFileVersion) {
    return damaged("unsupported format version");
  }
  const std::span<const std::uint8_t> payload =
      std::span<const std::uint8_t>(bytes).subspan(kHeaderBytes);
  if (proto::read_le(bytes, 8, 4) != hal::crc32(payload)) {
    return damaged("checksum mismatch");
  }
  DaemonSnapshot snapshot;
  if (auto parsed = from_wire(payload, snapshot); !parsed.ok()) {
    return parsed.error();
  }
  return snapshot;
}

}  // namespace surfos::daemon
