#pragma once

/// \file mapped_file.h
/// Read-only memory mapping for the lazy GBST open path. A MappedFile
/// mmaps a whole container file once; BlockSet::OpenMapped validates the
/// manifest eagerly against the mapping and leaves every shard payload
/// untouched until a query first routes to it — the page cache, not the
/// heap, holds cold shards. The mapping is PROT_READ/MAP_PRIVATE and the
/// fd stays open so the chaos path can re-read the same bytes through
/// util::IoShim::Pread (fault injection cannot interpose on a load
/// instruction; see docs/FORMAT.md §Lazy loading for the SIGBUS caveat
/// the pread path exists to sidestep in tests).
///
/// ViewStream is the zero-copy companion: an std::istream over a borrowed
/// byte range, so the stream-based manifest decoder parses straight out of
/// the mapping without an intermediate std::string copy. Shard payloads
/// skip the stream altogether: their arrays are views of the mapping
/// (GeoBlock::ReadFrom over bytes).

#include <cstddef>
#include <istream>
#include <streambuf>
#include <string>
#include <string_view>

namespace geoblocks::io {

/// RAII read-only mmap of a regular file. Movable, not copyable; unmaps
/// and closes on destruction. The mapped size is fixed at Open time — a
/// concurrent truncate makes loads past the new EOF raise SIGBUS, which
/// is the documented risk the manifest-checksummed size bounds and the
/// shim-backed pread path exist to contain.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Opens and maps `path` read-only.
  /// @throws std::runtime_error on open/stat/mmap failure.
  static MappedFile Open(const std::string& path);

  const char* data() const { return static_cast<const char*>(addr_); }
  size_t size() const { return size_; }
  /// The still-open descriptor, for the IoShim::Pread chaos read path.
  int fd() const { return fd_; }
  bool mapped() const { return addr_ != nullptr; }

  /// @return The bytes [offset, offset+count) as a view into the mapping.
  /// @throws std::out_of_range when the range exceeds the mapped size.
  std::string_view View(size_t offset, size_t count) const;

 private:
  void Reset() noexcept;

  void* addr_ = nullptr;
  size_t size_ = 0;
  int fd_ = -1;
};

/// A read-only std::streambuf over a borrowed byte range. The range must
/// outlive the buffer; nothing is copied.
class ViewStreambuf : public std::streambuf {
 public:
  ViewStreambuf(const char* data, size_t size) {
    // setg wants char*; the buffer is never written (no setp, overflow
    // stays default-fail), so the const_cast is contained here.
    char* p = const_cast<char*>(data);
    setg(p, p, p + size);
  }

 protected:
  // Support tellg/seekg so parsers can measure consumed bytes.
  pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                   std::ios_base::openmode which) override;
  pos_type seekpos(pos_type pos, std::ios_base::openmode which) override;
};

/// std::istream over a borrowed byte range (zero copy). The private-base
/// ordering guarantees the streambuf outlives istream construction.
class ViewStream : private ViewStreambuf, public std::istream {
 public:
  ViewStream(const char* data, size_t size)
      : ViewStreambuf(data, size), std::istream(this) {}
  explicit ViewStream(std::string_view bytes)
      : ViewStream(bytes.data(), bytes.size()) {}
};

}  // namespace geoblocks::io
