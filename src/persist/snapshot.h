// The checkpoint container format: a versioned, sectioned, CRC-guarded
// binary file.
//
// Layout (all integers little-endian, written via util/serialize.h):
//
//   magic      8 bytes  "METISCKP"
//   version    u32      kSnapshotVersion (readers reject anything else)
//   sections   u32      number of sections
//   header_crc u32      CRC-32 of the 16 bytes above
//   then per section, in strictly increasing id order:
//     id       u32      section id (persist/checkpoint.h names them)
//     length   u64      payload byte count
//     crc      u32      CRC-32 of the payload bytes
//     payload  length bytes
//
// Every byte of the file is covered by a checksum — the 16-byte prologue by
// header_crc, each payload by its section crc, and the section framing
// implicitly (a corrupted id breaks the ordering invariant, a corrupted
// length either fails the bounds check or shears the following section's
// framing).  A reader therefore either loads a bit-exact snapshot or throws
// SnapshotError with a diagnostic; it never half-restores.  Writers go
// through a temp file + rename so a crash mid-write can't leave a torn
// checkpoint at the target path.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/serialize.h"

namespace metis::persist {

inline constexpr char kSnapshotMagic[8] = {'M', 'E', 'T', 'I',
                                           'S', 'C', 'K', 'P'};
inline constexpr std::uint32_t kSnapshotVersion = 4;

/// Any malformed container: bad magic, unsupported version, CRC mismatch,
/// truncation, out-of-order or duplicate sections, trailing bytes.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& message)
      : std::runtime_error(message) {}
};

/// Accumulates sections and emits the container.
class SnapshotWriter {
 public:
  /// Appends one section.  Ids must be added in strictly increasing order
  /// (readers enforce the same, which is what makes reordering detectable).
  void section(std::uint32_t id, std::vector<std::uint8_t> payload);

  /// The full container as bytes.
  std::vector<std::uint8_t> to_bytes() const;

  /// Writes the container to `path` atomically (temp file in the same
  /// directory, then std::rename).  Throws SnapshotError on I/O failure.
  void write_file(const std::string& path) const;

 private:
  struct Section {
    std::uint32_t id;
    std::vector<std::uint8_t> payload;
  };
  std::vector<Section> sections_;
};

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// flushed, then std::rename over the target.  A crash mid-write leaves the
/// previous checkpoint (if any) intact.  Throws SnapshotError on failure.
void write_bytes_atomic(const std::vector<std::uint8_t>& bytes,
                        const std::string& path);

/// Parses and validates a container; sections are then available by id.
class SnapshotReader {
 public:
  /// Parses `bytes` (fully validating magic, version, every CRC and the
  /// section ordering).  `source` tags diagnostics (a file name).
  SnapshotReader(std::vector<std::uint8_t> bytes, std::string source);

  /// Reads and parses `path`.
  static SnapshotReader from_file(const std::string& path);

  /// Payload of section `id`; throws SnapshotError if absent.
  const std::vector<std::uint8_t>& section(std::uint32_t id) const;
  bool has_section(std::uint32_t id) const;
  /// All section ids, in file order (strictly increasing).
  std::vector<std::uint32_t> section_ids() const;
  const std::string& source() const { return source_; }

 private:
  std::string source_;
  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> sections_;
};

}  // namespace metis::persist
