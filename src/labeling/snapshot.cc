#include "labeling/snapshot.h"

#include <cstddef>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <utility>

#include "util/atomic_file.h"
#include "util/checksum.h"
#include "util/endian.h"
#include "util/failpoint.h"
#include "util/mmap_file.h"

namespace wcsd {

namespace {

// On-disk widths the format is defined in terms of. If one of these ever
// changes, the version must be bumped and a migration written.
static_assert(sizeof(Vertex) == 4);
static_assert(sizeof(LabelEntry) == 12);
static_assert(sizeof(HubGroup) == 8);
static_assert(sizeof(Quality) == 4);

constexpr uint64_t kSnapshotMagic = 0x57435344'534e4150ULL;  // "WCSDSNAP"
constexpr uint64_t kPageSize = 4096;
constexpr uint32_t kFlagHasOrder = 1u << 0;
constexpr uint32_t kFlagHasParents = 1u << 1;   // v2 and later
constexpr uint32_t kFlagCompressed = 1u << 2;   // v3 and later

enum SectionId : size_t {
  kSectionOrder = 0,
  kSectionOffsets = 1,
  kSectionEntries = 2,
  kSectionGroupOffsets = 3,
  kSectionGroups = 4,
  kSectionParents = 5,      // v2+; absent from the v1 section table
  kSectionCompOffsets = 6,  // v3+; per-vertex byte offsets into the blob
  kSectionBlob = 7,         // v3+; delta/varint label streams
  kSectionDict = 8,         // v3+; sorted distinct finite qualities
  kNumSections = 9,
};
constexpr size_t kNumSectionsV1 = 5;
constexpr size_t kNumSectionsV2 = 6;

constexpr uint64_t kSectionElemSize[kNumSections] = {
    sizeof(Vertex),   sizeof(uint64_t), sizeof(LabelEntry),
    sizeof(uint64_t), sizeof(HubGroup), sizeof(Vertex),
    sizeof(uint64_t), sizeof(uint8_t),  sizeof(Quality)};

struct SectionDesc {
  uint64_t file_offset;
  uint64_t byte_length;
  uint64_t element_count;
  uint32_t crc32c;
  uint32_t reserved;
};
static_assert(sizeof(SectionDesc) == 32);

// The on-disk header layouts share every field; they differ only in the
// section-table length (and therefore where header_crc sits). v1 files —
// everything written before the parents section existed, and every
// parent-less uncompressed file written since — use the 5-entry table;
// v2 adds the parents slot, v3 the three compressed-label slots.
template <size_t N>
struct SnapshotHeaderT {
  uint64_t magic;
  uint32_t version;
  uint32_t flags;
  uint64_t num_vertices_total;
  uint64_t vertex_begin;
  uint64_t vertex_end;
  uint64_t section_count;
  SectionDesc sections[N];
  uint32_t header_crc;  // CRC-32C of the bytes preceding this field
};
using SnapshotHeaderV1 = SnapshotHeaderT<kNumSectionsV1>;
using SnapshotHeaderV2 = SnapshotHeaderT<kNumSectionsV2>;
// The in-memory canonical form is the v3 layout; older files are widened
// on parse (absent sections zeroed).
using SnapshotHeader = SnapshotHeaderT<kNumSections>;
static_assert(offsetof(SnapshotHeaderV1, header_crc) == 208);
static_assert(offsetof(SnapshotHeaderV2, header_crc) == 240);
static_assert(offsetof(SnapshotHeader, header_crc) == 336);
static_assert(sizeof(SnapshotHeader) <= kPageSize);

uint64_t AlignUp(uint64_t x) { return (x + kPageSize - 1) & ~(kPageSize - 1); }

struct SectionData {
  const void* data;
  uint64_t element_count;
};

// Lays out the sections page-aligned after the header, fills the section
// table (offsets, lengths, checksums), and writes the file with the given
// header layout (v1 or v2).
template <size_t N>
Status WriteSnapshotFileT(const std::string& path, uint32_t version,
                          SnapshotHeaderT<N> header,
                          const SectionData (&sections)[kNumSections]) {
  WCSD_RETURN_NOT_OK(CheckSerializationByteOrder());
  uint64_t cursor = kPageSize;
  for (size_t s = 0; s < N; ++s) {
    SectionDesc& desc = header.sections[s];
    desc.element_count = sections[s].element_count;
    desc.byte_length = sections[s].element_count * kSectionElemSize[s];
    desc.file_offset = cursor;
    desc.crc32c = Crc32c(sections[s].data, desc.byte_length);
    desc.reserved = 0;
    cursor += AlignUp(desc.byte_length);
  }
  header.magic = kSnapshotMagic;
  header.version = version;
  header.section_count = N;
  header.header_crc =
      Crc32c(&header, offsetof(SnapshotHeaderT<N>, header_crc));

  // Crash-safe replacement: everything lands in a temp file, and the
  // target path only ever changes at Commit's atomic rename — a crash (or
  // injected fault) at ANY point leaves the old snapshot intact. The
  // failpoints below let tests pin a fault to a specific write.
  Result<AtomicFileWriter> opened = AtomicFileWriter::Open(path);
  if (!opened.ok()) return opened.status();
  AtomicFileWriter writer = std::move(opened).value();
  {
    FailpointResult fp = WCSD_FAILPOINT("snapshot.write.header");
    if (fp.action == FailpointAction::kError) {
      return Status::IoError("injected fault writing header of " + path);
    }
  }
  char page[kPageSize] = {};
  std::memcpy(page, &header, sizeof(header));
  WCSD_RETURN_NOT_OK(writer.Write(page, kPageSize));
  for (size_t s = 0; s < N; ++s) {
    const SectionDesc& desc = header.sections[s];
    if (desc.byte_length == 0) continue;
    FailpointResult fp = WCSD_FAILPOINT("snapshot.write.section");
    if (fp.action == FailpointAction::kError) {
      return Status::IoError("injected fault writing section of " + path);
    }
    // Positional writes past EOF leave a zero-filled gap — the
    // inter-section padding.
    WCSD_RETURN_NOT_OK(writer.WriteAt(desc.file_offset, sections[s].data,
                                      desc.byte_length));
  }
  return writer.Commit();
}

// Picks the smallest header layout that can carry the payload: v1 when
// neither parents nor compressed sections are present, v2 with parents
// only, v3 for compressed files. Keeps every older payload byte-identical
// to the format it has always been written in.
Status WriteSnapshotFile(const std::string& path, const SnapshotHeader& header,
                         const SectionData (&sections)[kNumSections]) {
  if (sections[kSectionCompOffsets].element_count != 0) {
    SnapshotHeader v3 = header;
    v3.flags |= kFlagCompressed;
    return WriteSnapshotFileT(path, /*version=*/kSnapshotVersion, v3,
                              sections);
  }
  if (sections[kSectionParents].element_count == 0) {
    SnapshotHeaderV1 v1 = {};
    v1.flags = header.flags & ~kFlagHasParents;
    v1.num_vertices_total = header.num_vertices_total;
    v1.vertex_begin = header.vertex_begin;
    v1.vertex_end = header.vertex_end;
    return WriteSnapshotFileT(path, /*version=*/1, v1, sections);
  }
  SnapshotHeaderV2 v2 = {};
  v2.flags = header.flags | kFlagHasParents;
  v2.num_vertices_total = header.num_vertices_total;
  v2.vertex_begin = header.vertex_begin;
  v2.vertex_end = header.vertex_end;
  return WriteSnapshotFileT(path, /*version=*/2, v2, sections);
}

Result<SnapshotHeader> ParseHeader(const std::byte* data, size_t size,
                                   const std::string& path) {
  if (size < kPageSize) {
    return Status::Corruption("truncated snapshot header in " + path);
  }
  // The magic/version prefix is layout-invariant; everything after it
  // depends on the version's section-table length.
  uint64_t magic;
  uint32_t version;
  std::memcpy(&magic, data, sizeof(magic));
  std::memcpy(&version, data + sizeof(magic), sizeof(version));
  if (magic != kSnapshotMagic) {
    return Status::Corruption("bad snapshot magic in " + path);
  }
  if (version != 1 && version != 2 && version != kSnapshotVersion) {
    return Status::Corruption("unsupported snapshot version " +
                              std::to_string(version) + " in " + path);
  }
  // Widens an older header to the canonical layout (absent sections stay
  // zeroed: element_count 0 == absent) after verifying its own CRC and
  // section-table length, and rejecting flags the version cannot carry.
  SnapshotHeader header = {};
  auto widen = [&](auto narrow, size_t expect_sections,
                   uint32_t allowed_flags) -> Status {
    std::memcpy(&narrow, data, sizeof(narrow));
    uint32_t expected =
        Crc32c(data, offsetof(decltype(narrow), header_crc));
    if (narrow.header_crc != expected) {
      return Status::Corruption("snapshot header checksum mismatch in " +
                                path);
    }
    if (narrow.section_count != expect_sections ||
        (narrow.flags & ~allowed_flags) != 0) {
      return Status::Corruption("inconsistent snapshot header in " + path);
    }
    header.magic = narrow.magic;
    header.version = narrow.version;
    header.flags = narrow.flags;
    header.num_vertices_total = narrow.num_vertices_total;
    header.vertex_begin = narrow.vertex_begin;
    header.vertex_end = narrow.vertex_end;
    header.section_count = kNumSections;
    std::memcpy(header.sections, narrow.sections, sizeof(narrow.sections));
    header.header_crc = narrow.header_crc;
    return Status::OK();
  };
  if (version == 1) {
    // v1 predates the parents section; the flag cannot be honored there.
    WCSD_RETURN_NOT_OK(widen(SnapshotHeaderV1{}, kNumSectionsV1,
                             kFlagHasOrder));
  } else if (version == 2) {
    WCSD_RETURN_NOT_OK(widen(SnapshotHeaderV2{}, kNumSectionsV2,
                             kFlagHasOrder | kFlagHasParents));
  } else {
    WCSD_RETURN_NOT_OK(widen(SnapshotHeader{}, kNumSections,
                             kFlagHasOrder | kFlagHasParents |
                                 kFlagCompressed));
  }
  // Vertex ids are 32-bit (types.h reserves the max value as kNullVertex),
  // which also keeps every count arithmetic below overflow-safe.
  if (header.vertex_begin > header.vertex_end ||
      header.vertex_end > header.num_vertices_total ||
      header.num_vertices_total >= kNullVertex) {
    return Status::Corruption("inconsistent snapshot header in " + path);
  }
  const uint64_t n_range = header.vertex_end - header.vertex_begin;
  const bool has_order = (header.flags & kFlagHasOrder) != 0;
  const bool has_parents = (header.flags & kFlagHasParents) != 0;
  const bool compressed = (header.flags & kFlagCompressed) != 0;
  // Parent quads align index-for-index with the flat entry array, which a
  // compressed file does not carry — the combination is unrepresentable.
  if (compressed && has_parents) {
    return Status::Corruption(
        "compressed snapshot claims a parents section in " + path);
  }
  // A compressed file stores its labels in the blob: the flat entry and
  // group sections must be empty (and vice versa, uncompressed files must
  // not smuggle in compressed sections).
  if (compressed && (header.sections[kSectionEntries].element_count != 0 ||
                     header.sections[kSectionGroups].element_count != 0)) {
    return Status::Corruption(
        "compressed snapshot carries flat label sections in " + path);
  }
  // Parents are quads for the entries: when present, the two sections must
  // align index-for-index. Entries, groups and (for compressed files) the
  // blob and dictionary have data-dependent counts — checked structurally
  // by the label-set Validate at load, not here.
  const uint64_t expected_counts[kNumSections] = {
      has_order ? header.num_vertices_total : 0,
      n_range + 1,
      0,
      n_range + 1,
      0,
      has_parents ? header.sections[kSectionEntries].element_count : 0,
      compressed ? n_range + 1 : 0,
      0,
      0};
  for (size_t s = 0; s < kNumSections; ++s) {
    const SectionDesc& desc = header.sections[s];
    // Reject element counts whose byte size would wrap uint64 before the
    // byte_length cross-check below could catch them.
    if (desc.element_count >
        std::numeric_limits<uint64_t>::max() / kSectionElemSize[s]) {
      return Status::Corruption("bad snapshot section table in " + path);
    }
    if (desc.byte_length != desc.element_count * kSectionElemSize[s] ||
        desc.file_offset % alignof(uint64_t) != 0 ||
        (desc.byte_length > 0 &&
         (desc.file_offset < kPageSize || desc.file_offset > size ||
          size - desc.file_offset < desc.byte_length))) {
      return Status::Corruption("bad snapshot section table in " + path);
    }
    const bool data_dependent =
        s == kSectionEntries || s == kSectionGroups ||
        (compressed && (s == kSectionBlob || s == kSectionDict));
    if (!data_dependent && desc.element_count != expected_counts[s]) {
      return Status::Corruption("snapshot section count mismatch in " + path);
    }
  }
  return header;
}

SnapshotInfo InfoFromHeader(const SnapshotHeader& header) {
  SnapshotInfo info;
  info.version = header.version;
  info.num_vertices_total = header.num_vertices_total;
  info.vertex_begin = header.vertex_begin;
  info.vertex_end = header.vertex_end;
  info.has_order = (header.flags & kFlagHasOrder) != 0;
  info.has_parents = (header.flags & kFlagHasParents) != 0;
  info.compressed = (header.flags & kFlagCompressed) != 0;
  info.header_crc = header.header_crc;
  return info;
}

template <typename T>
std::span<const T> SectionSpan(const std::byte* base,
                               const SectionDesc& desc) {
  // Empty sections may carry an offset past EOF (nothing was written
  // there); never form a pointer into that.
  if (desc.element_count == 0) return {};
  return {reinterpret_cast<const T*>(base + desc.file_offset),
          static_cast<size_t>(desc.element_count)};
}

}  // namespace

Status WriteSnapshot(const std::string& path, const FlatLabelSet& flat,
                     const VertexOrder* order,
                     std::span<const Vertex> parents,
                     const SnapshotWriteOptions& write_options) {
  if (order != nullptr && order->size() != flat.NumVertices()) {
    return Status::InvalidArgument(
        "order size does not match the label set");
  }
  if (!parents.empty() && parents.size() != flat.raw_entries().size()) {
    return Status::InvalidArgument(
        "parents size does not match the entry count");
  }
  if (write_options.compress && !parents.empty()) {
    return Status::InvalidArgument(
        "compressed snapshots cannot carry parent quads");
  }
  SnapshotHeader header = {};
  header.flags = order != nullptr ? kFlagHasOrder : 0;
  header.num_vertices_total = flat.NumVertices();
  header.vertex_begin = 0;
  header.vertex_end = flat.NumVertices();
  if (write_options.compress) {
    const CompressedFlatLabelSet comp = CompressedFlatLabelSet::FromFlat(flat);
    const SectionData sections[kNumSections] = {
        {order != nullptr ? order->by_rank().data() : nullptr,
         order != nullptr ? order->size() : 0},
        {comp.raw_offsets().data(), comp.raw_offsets().size()},
        {nullptr, 0},
        {comp.raw_group_offsets().data(), comp.raw_group_offsets().size()},
        {nullptr, 0},
        {nullptr, 0},
        {comp.raw_comp_offsets().data(), comp.raw_comp_offsets().size()},
        {comp.raw_blob().data(), comp.raw_blob().size()},
        {comp.raw_dictionary().data(), comp.raw_dictionary().size()},
    };
    return WriteSnapshotFile(path, header, sections);
  }
  const SectionData sections[kNumSections] = {
      {order != nullptr ? order->by_rank().data() : nullptr,
       order != nullptr ? order->size() : 0},
      {flat.raw_offsets().data(), flat.raw_offsets().size()},
      {flat.raw_entries().data(), flat.raw_entries().size()},
      {flat.raw_group_offsets().data(), flat.raw_group_offsets().size()},
      {flat.raw_groups().data(), flat.raw_groups().size()},
      {parents.data(), parents.size()},
      {nullptr, 0},
      {nullptr, 0},
      {nullptr, 0},
  };
  return WriteSnapshotFile(path, header, sections);
}

Status WriteSnapshotShard(const std::string& path, const FlatLabelSet& flat,
                          uint64_t begin, uint64_t end,
                          uint64_t num_vertices_total,
                          std::span<const Vertex> parents,
                          const SnapshotWriteOptions& write_options) {
  if (begin > end || end > flat.NumVertices() ||
      num_vertices_total != flat.NumVertices()) {
    return Status::InvalidArgument("invalid shard vertex range");
  }
  if (!parents.empty() && parents.size() != flat.raw_entries().size()) {
    return Status::InvalidArgument(
        "parents size does not match the entry count");
  }
  if (write_options.compress && !parents.empty()) {
    return Status::InvalidArgument(
        "compressed snapshots cannot carry parent quads");
  }
  auto offsets = flat.raw_offsets();
  auto group_offsets = flat.raw_group_offsets();
  // Rebase the offset arrays so the shard file stands alone. Entry and
  // group payloads are written as direct slices; HubGroup.begin is already
  // vertex-relative, so no rewrite is needed there.
  std::vector<uint64_t> local_offsets(end - begin + 1);
  std::vector<uint64_t> local_group_offsets(end - begin + 1);
  for (uint64_t v = begin; v <= end; ++v) {
    local_offsets[v - begin] = offsets[v] - offsets[begin];
    local_group_offsets[v - begin] = group_offsets[v] - group_offsets[begin];
  }
  auto entries =
      flat.raw_entries().subspan(offsets[begin], offsets[end] - offsets[begin]);
  auto groups = flat.raw_groups().subspan(
      group_offsets[begin], group_offsets[end] - group_offsets[begin]);
  // The parents slice tracks the entry slice index-for-index.
  std::span<const Vertex> shard_parents =
      parents.empty() ? parents
                      : parents.subspan(offsets[begin],
                                        offsets[end] - offsets[begin]);

  SnapshotHeader header = {};
  header.flags = 0;
  header.num_vertices_total = num_vertices_total;
  header.vertex_begin = begin;
  header.vertex_end = end;
  if (write_options.compress) {
    // Compress the shard's slice as a self-contained label set (its own
    // dictionary): a temporary FlatLabelSet over the rebased arrays. The
    // spans only live for this function — FromFlat copies what it keeps.
    const FlatLabelSet slice = FlatLabelSet::FromExternal(
        local_offsets, entries, local_group_offsets, groups, nullptr);
    const CompressedFlatLabelSet comp =
        CompressedFlatLabelSet::FromFlat(slice);
    const SectionData sections[kNumSections] = {
        {nullptr, 0},
        {comp.raw_offsets().data(), comp.raw_offsets().size()},
        {nullptr, 0},
        {comp.raw_group_offsets().data(), comp.raw_group_offsets().size()},
        {nullptr, 0},
        {nullptr, 0},
        {comp.raw_comp_offsets().data(), comp.raw_comp_offsets().size()},
        {comp.raw_blob().data(), comp.raw_blob().size()},
        {comp.raw_dictionary().data(), comp.raw_dictionary().size()},
    };
    return WriteSnapshotFile(path, header, sections);
  }
  const SectionData sections[kNumSections] = {
      {nullptr, 0},
      {local_offsets.data(), local_offsets.size()},
      {entries.data(), entries.size()},
      {local_group_offsets.data(), local_group_offsets.size()},
      {groups.data(), groups.size()},
      {shard_parents.data(), shard_parents.size()},
      {nullptr, 0},
      {nullptr, 0},
      {nullptr, 0},
  };
  return WriteSnapshotFile(path, header, sections);
}

Result<MappedSnapshot> LoadSnapshotMmap(const std::string& path,
                                        const SnapshotLoadOptions& options) {
  WCSD_RETURN_NOT_OK(CheckSerializationByteOrder());
  Result<MmapFile> file = MmapFile::Open(path);
  if (!file.ok()) return file.status();
  auto mapping = std::make_shared<MmapFile>(std::move(file).value());
  Result<SnapshotHeader> parsed =
      ParseHeader(mapping->data(), mapping->size(), path);
  if (!parsed.ok()) return parsed.status();
  const SnapshotHeader& header = parsed.value();
  const std::byte* base = mapping->data();

  if (options.verify_checksums) {
    for (size_t s = 0; s < kNumSections; ++s) {
      const SectionDesc& desc = header.sections[s];
      // Absent sections (v1 files widen to a zeroed parents entry) have no
      // bytes to sum and no recorded CRC.
      if (desc.byte_length == 0) continue;
      uint32_t crc = Crc32c(base + desc.file_offset, desc.byte_length);
      if (crc != desc.crc32c) {
        return Status::Corruption("snapshot section checksum mismatch in " +
                                  path);
      }
    }
  }

  MappedSnapshot snapshot;
  snapshot.info = InfoFromHeader(header);
  const SnapshotVerifyLevel level = options.verify_level;
  const ValidateLevel validate =
      level == SnapshotVerifyLevel::kDeep        ? ValidateLevel::kDeep
      : level == SnapshotVerifyLevel::kDirectory ? ValidateLevel::kDirectory
                                                 : ValidateLevel::kShape;
  if (snapshot.info.compressed) {
    snapshot.compressed = CompressedFlatLabelSet::FromExternal(
        SectionSpan<uint64_t>(base, header.sections[kSectionOffsets]),
        SectionSpan<uint64_t>(base, header.sections[kSectionGroupOffsets]),
        SectionSpan<uint64_t>(base, header.sections[kSectionCompOffsets]),
        SectionSpan<uint8_t>(base, header.sections[kSectionBlob]),
        SectionSpan<Quality>(base, header.sections[kSectionDict]), mapping);
    Status valid = snapshot.compressed.Validate(validate);
    if (!valid.ok()) {
      return Status::Corruption(valid.message() + " in " + path);
    }
  } else {
    snapshot.labels = FlatLabelSet::FromExternal(
        SectionSpan<uint64_t>(base, header.sections[kSectionOffsets]),
        SectionSpan<LabelEntry>(base, header.sections[kSectionEntries]),
        SectionSpan<uint64_t>(base, header.sections[kSectionGroupOffsets]),
        SectionSpan<HubGroup>(base, header.sections[kSectionGroups]),
        mapping);
    Status valid = snapshot.labels.Validate(validate);
    if (!valid.ok()) {
      return Status::Corruption(valid.message() + " in " + path);
    }
  }
  if (snapshot.info.has_order) {
    auto order = SectionSpan<Vertex>(base, header.sections[kSectionOrder]);
    snapshot.order_by_rank.assign(order.begin(), order.end());
  }
  if (snapshot.info.has_parents) {
    snapshot.parents =
        SectionSpan<Vertex>(base, header.sections[kSectionParents]);
  }
  return snapshot;
}

Result<SnapshotInfo> ReadSnapshotInfo(const std::string& path) {
  WCSD_RETURN_NOT_OK(CheckSerializationByteOrder());
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::byte page[kPageSize];
  in.read(reinterpret_cast<char*>(page), static_cast<std::streamsize>(
                                             kPageSize));
  size_t got = static_cast<size_t>(in.gcount());
  // Section bounds cannot be checked against the file size from the header
  // page alone; pass a size that accepts any in-range offset and rely on
  // ParseHeader's field checks. LoadSnapshotMmap does the real bounds work.
  Result<SnapshotHeader> parsed =
      got >= kPageSize
          ? ParseHeader(page, std::numeric_limits<size_t>::max(), path)
          : Result<SnapshotHeader>(
                Status::Corruption("truncated snapshot header in " + path));
  if (!parsed.ok()) return parsed.status();
  return InfoFromHeader(parsed.value());
}

}  // namespace wcsd
