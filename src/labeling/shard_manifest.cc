#include "labeling/shard_manifest.h"

#include <cstddef>
#include <cstring>
#include <fstream>
#include <limits>

#include "labeling/label_store.h"
#include "labeling/snapshot.h"
#include "util/atomic_file.h"
#include "util/checksum.h"
#include "util/endian.h"
#include "util/failpoint.h"

namespace wcsd {

namespace {

constexpr uint64_t kManifestMagic = 0x57435344'4d465354ULL;  // "WCSDMFST"

struct ManifestHeader {
  uint64_t magic;
  uint32_t version;
  uint32_t shard_count;
  uint64_t num_vertices_total;
  uint64_t total_entries;
  uint64_t total_groups;
  uint64_t total_label_bytes;
  uint64_t fingerprint;
  uint64_t reserved;
};
static_assert(sizeof(ManifestHeader) == 64);

struct ShardRecord {
  uint64_t vertex_begin;
  uint64_t vertex_end;
  uint64_t entry_count;
  uint64_t group_count;
  uint64_t label_bytes;
  uint32_t snapshot_header_crc;
  uint32_t path_bytes;
};
static_assert(sizeof(ShardRecord) == 48);

template <typename T>
void AppendBytes(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

}  // namespace

Status ShardManifest::ValidateTiling() const {
  uint64_t cursor = 0;
  uint64_t entries = 0, groups = 0, bytes = 0;
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardManifestEntry& shard = shards[i];
    if (shard.vertex_begin != cursor || shard.vertex_end < shard.vertex_begin) {
      return Status::InvalidArgument(
          "manifest shards do not tile the vertex range: shard " +
          std::to_string(i) + " (" + shard.path + ") covers [" +
          std::to_string(shard.vertex_begin) + ", " +
          std::to_string(shard.vertex_end) + ") but the range is tiled up to " +
          std::to_string(cursor));
    }
    cursor = shard.vertex_end;
    entries += shard.entry_count;
    groups += shard.group_count;
    bytes += shard.label_bytes;
  }
  if (cursor != num_vertices_total) {
    return Status::InvalidArgument(
        "manifest shards do not cover the full vertex range (end at " +
        std::to_string(cursor) + " of " +
        std::to_string(num_vertices_total) + ")");
  }
  if (entries != total_entries || groups != total_groups ||
      bytes != total_label_bytes) {
    return Status::InvalidArgument(
        "manifest per-shard masses do not add up to the recorded totals");
  }
  return Status::OK();
}

uint64_t IndexContentFingerprint(const FlatLabelSet& flat) {
  const uint64_t n = flat.NumVertices();
  const uint32_t seed = Crc32c(&n, sizeof(n));
  auto entries = flat.raw_entries();
  auto groups = flat.raw_groups();
  const uint32_t entries_crc =
      Crc32c(entries.data(), entries.size() * sizeof(LabelEntry), seed);
  const uint32_t groups_crc =
      Crc32c(groups.data(), groups.size() * sizeof(HubGroup), seed);
  return (uint64_t{groups_crc} << 32) | entries_crc;
}

Status WriteShardManifest(const std::string& path,
                          const ShardManifest& manifest) {
  WCSD_RETURN_NOT_OK(CheckSerializationByteOrder());
  if (manifest.shards.size() >
      std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("too many shards for a manifest");
  }
  ManifestHeader header = {};
  header.magic = kManifestMagic;
  header.version = kShardManifestVersion;
  header.shard_count = static_cast<uint32_t>(manifest.shards.size());
  header.num_vertices_total = manifest.num_vertices_total;
  header.total_entries = manifest.total_entries;
  header.total_groups = manifest.total_groups;
  header.total_label_bytes = manifest.total_label_bytes;
  header.fingerprint = manifest.fingerprint;

  std::string buffer;
  AppendBytes(&buffer, header);
  for (const ShardManifestEntry& shard : manifest.shards) {
    if (shard.path.size() > std::numeric_limits<uint32_t>::max()) {
      return Status::InvalidArgument("shard path too long for a manifest");
    }
    ShardRecord record = {};
    record.vertex_begin = shard.vertex_begin;
    record.vertex_end = shard.vertex_end;
    record.entry_count = shard.entry_count;
    record.group_count = shard.group_count;
    record.label_bytes = shard.label_bytes;
    record.snapshot_header_crc = shard.snapshot_header_crc;
    record.path_bytes = static_cast<uint32_t>(shard.path.size());
    AppendBytes(&buffer, record);
  }
  for (const ShardManifestEntry& shard : manifest.shards) {
    buffer.append(shard.path);
  }
  const uint32_t crc = Crc32c(buffer.data(), buffer.size());
  AppendBytes(&buffer, crc);

  // Temp-file + atomic-rename: the manifest is the artifact that names a
  // whole shard set, so a torn manifest must be impossible — the path holds
  // either the previous complete manifest or the new one.
  {
    FailpointResult fp = WCSD_FAILPOINT("manifest.write");
    if (fp.action == FailpointAction::kError) {
      return Status::IoError("injected fault writing manifest " + path);
    }
  }
  Result<AtomicFileWriter> opened = AtomicFileWriter::Open(path);
  if (!opened.ok()) return opened.status();
  AtomicFileWriter writer = std::move(opened).value();
  WCSD_RETURN_NOT_OK(writer.Write(buffer.data(), buffer.size()));
  return writer.Commit();
}

Result<ShardManifest> ReadShardManifest(const std::string& path) {
  WCSD_RETURN_NOT_OK(CheckSerializationByteOrder());
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open manifest " + path);
  std::string bytes{std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>()};
  if (!in.good() && !in.eof()) {
    return Status::IoError("read failed for manifest " + path);
  }
  if (bytes.size() < sizeof(ManifestHeader) + sizeof(uint32_t)) {
    return Status::Corruption("truncated manifest " + path);
  }
  uint32_t stored_crc;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - sizeof(stored_crc),
              sizeof(stored_crc));
  const size_t body_size = bytes.size() - sizeof(stored_crc);
  if (Crc32c(bytes.data(), body_size) != stored_crc) {
    return Status::Corruption("manifest checksum mismatch in " + path);
  }

  ManifestHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  if (header.magic != kManifestMagic) {
    return Status::Corruption("bad manifest magic in " + path);
  }
  if (header.version != kShardManifestVersion) {
    return Status::Corruption("unsupported manifest version " +
                              std::to_string(header.version) + " in " + path);
  }
  // Record table and path blob must fit exactly inside the checksummed
  // body; every size computation below stays in uint64 and is bounded by
  // the actual file size, so no count can wrap or over-allocate.
  const uint64_t records_offset = sizeof(ManifestHeader);
  const uint64_t records_bytes =
      uint64_t{header.shard_count} * sizeof(ShardRecord);
  if (records_bytes > body_size - records_offset) {
    return Status::Corruption("bad manifest record table in " + path);
  }
  ShardManifest manifest;
  manifest.num_vertices_total = header.num_vertices_total;
  manifest.total_entries = header.total_entries;
  manifest.total_groups = header.total_groups;
  manifest.total_label_bytes = header.total_label_bytes;
  manifest.fingerprint = header.fingerprint;
  manifest.shards.resize(header.shard_count);

  uint64_t paths_offset = records_offset + records_bytes;
  uint64_t total_path_bytes = 0;
  for (uint32_t i = 0; i < header.shard_count; ++i) {
    ShardRecord record;
    std::memcpy(&record, bytes.data() + records_offset +
                             uint64_t{i} * sizeof(ShardRecord),
                sizeof(record));
    ShardManifestEntry& shard = manifest.shards[i];
    shard.vertex_begin = record.vertex_begin;
    shard.vertex_end = record.vertex_end;
    shard.entry_count = record.entry_count;
    shard.group_count = record.group_count;
    shard.label_bytes = record.label_bytes;
    shard.snapshot_header_crc = record.snapshot_header_crc;
    total_path_bytes += record.path_bytes;
    if (total_path_bytes > body_size - paths_offset) {
      return Status::Corruption("bad manifest path table in " + path);
    }
    shard.path.assign(
        bytes.data() + paths_offset + (total_path_bytes - record.path_bytes),
        record.path_bytes);
  }
  if (paths_offset + total_path_bytes != body_size) {
    return Status::Corruption("manifest has trailing bytes in " + path);
  }
  return manifest;
}

std::string ResolveShardPath(const std::string& manifest_path,
                             const std::string& shard_path) {
  if (!shard_path.empty() && shard_path.front() == '/') return shard_path;
  size_t slash = manifest_path.rfind('/');
  if (slash == std::string::npos) return shard_path;
  return manifest_path.substr(0, slash + 1) + shard_path;
}

Result<std::vector<std::string>> WriteShardFiles(
    const std::string& stem, const FlatLabelSet& flat, const ShardPlan& plan,
    const SnapshotWriteOptions& write_options) {
  if (plan.num_vertices != flat.NumVertices()) {
    return Status::InvalidArgument(
        "shard plan was computed for a different label set");
  }
  if (stem.empty() || stem.back() == '/') {
    return Status::InvalidArgument("shard set stem names no file: " + stem);
  }
  std::vector<std::string> paths;
  for (size_t k = 0; k < plan.shards.size(); ++k) {
    const PlannedShard& planned = plan.shards[k];
    paths.push_back(stem + ".shard" + std::to_string(k));
    WCSD_RETURN_NOT_OK(WriteSnapshotShard(paths.back(), flat, planned.begin,
                                          planned.end, flat.NumVertices(),
                                          /*parents=*/{}, write_options));
  }
  return paths;
}

Result<ShardManifest> RecordShardManifest(
    const std::string& manifest_path,
    const std::vector<std::string>& shard_paths, uint64_t fingerprint) {
  if (shard_paths.empty()) {
    return Status::InvalidArgument("no shard files to record in " +
                                   manifest_path);
  }
  // Shards in the manifest's directory are recorded relative to it ("" when
  // the manifest names no directory, so every path is taken as given).
  const std::string dir =
      manifest_path.substr(0, manifest_path.rfind('/') + 1);
  ShardManifest manifest;
  manifest.fingerprint = fingerprint;
  for (const std::string& path : shard_paths) {
    ShardManifestEntry entry;
    if (path.compare(0, dir.size(), dir) == 0) {
      entry.path = path.substr(dir.size());
    } else if (!path.empty() && path.front() == '/') {
      entry.path = path;
    } else {
      return Status::InvalidArgument(
          "shard " + path + " is neither in the manifest's directory (" +
          dir + ") nor an absolute path");
    }
    // Mapping validates only the header and offset arrays; a compressed
    // shard's logical offsets give its counts without a decode.
    Result<MappedSnapshot> mapped = LoadSnapshotMmap(path);
    if (!mapped.ok()) return mapped.status();
    const SnapshotInfo& info = mapped.value().info;
    if (!manifest.shards.empty() &&
        info.num_vertices_total != manifest.num_vertices_total) {
      return Status::InvalidArgument(
          "shard " + path + " belongs to a different index (vertex totals "
          "disagree)");
    }
    manifest.num_vertices_total = info.num_vertices_total;
    const LabelStore store = LabelStore::FromSnapshot(&mapped.value());
    entry.vertex_begin = info.vertex_begin;
    entry.vertex_end = info.vertex_end;
    entry.entry_count = store.TotalEntries();
    entry.group_count = store.TotalGroups();
    entry.label_bytes =
        ShardLabelBytes(info.vertex_end - info.vertex_begin,
                        entry.entry_count, entry.group_count);
    entry.snapshot_header_crc = info.header_crc;
    manifest.total_entries += entry.entry_count;
    manifest.total_groups += entry.group_count;
    manifest.total_label_bytes += entry.label_bytes;
    manifest.shards.push_back(std::move(entry));
  }
  WCSD_RETURN_NOT_OK(manifest.ValidateTiling());
  WCSD_RETURN_NOT_OK(WriteShardManifest(manifest_path, manifest));
  return manifest;
}

Result<WrittenShardSet> WriteShardSet(const std::string& stem,
                                      const FlatLabelSet& flat,
                                      const ShardPlan& plan,
                                      const SnapshotWriteOptions& write_options) {
  WrittenShardSet result;
  result.manifest_path = stem + ".manifest";
  Result<std::vector<std::string>> paths =
      WriteShardFiles(stem, flat, plan, write_options);
  if (!paths.ok()) return paths.status();
  result.shard_paths = std::move(paths).value();
  Result<ShardManifest> manifest = RecordShardManifest(
      result.manifest_path, result.shard_paths, IndexContentFingerprint(flat));
  if (!manifest.ok()) return manifest.status();
  result.manifest = std::move(manifest).value();
  return result;
}

}  // namespace wcsd
