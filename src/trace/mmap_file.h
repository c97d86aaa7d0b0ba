/**
 * @file
 * Read-only memory-mapped file (RAII). trace::readTraceStore maps
 * every regular trace file and hands a `paib` file's pages straight
 * to the columnar JobStore; the kernel then faults in only the pages
 * the analyses actually touch, and a 100M-job trace never transits a
 * read() buffer.
 *
 * Only regular files are mapped. A pipe or FIFO is never opened here
 * (opening a FIFO would wait for a writer, and closing it again could
 * cut that writer off), and on platforms without mmap nothing is
 * mapped: trace::readTraceStore reads those to EOF instead.
 */

#ifndef PAICHAR_TRACE_MMAP_FILE_H
#define PAICHAR_TRACE_MMAP_FILE_H

#include <optional>
#include <string>
#include <string_view>

namespace paichar::trace {

/** A read-only mapping of a regular file. Move-only. */
class MappedFile
{
  public:
    /**
     * Map @p path read-only. nullopt when it is not a regular file or
     * cannot be opened or mapped (a nonexistent path fails here too);
     * the caller then reads it another way. An empty file maps to a
     * valid empty view.
     */
    static std::optional<MappedFile> map(const std::string &path);

    MappedFile(MappedFile &&o) noexcept;
    MappedFile &operator=(MappedFile &&o) noexcept;
    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;
    ~MappedFile();

    /** The mapped bytes. */
    std::string_view view() const { return {data_, size_}; }

    size_t size() const { return size_; }

  private:
    MappedFile() = default;

    const char *data_ = nullptr;
    size_t size_ = 0;
};

} // namespace paichar::trace

#endif // PAICHAR_TRACE_MMAP_FILE_H
