#include "mmap_file.h"

#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define PAICHAR_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace paichar::trace {

std::optional<MappedFile>
MappedFile::map(const std::string &path)
{
#if PAICHAR_HAVE_MMAP
    // Check the type before opening: open() on a FIFO would block
    // until a writer appears, and closing it again could leave that
    // writer with no reader.
    struct stat st;
    if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode))
        return std::nullopt;
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return std::nullopt;
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
        ::close(fd);
        return std::nullopt;
    }
    MappedFile f;
    f.size_ = static_cast<size_t>(st.st_size);
    if (f.size_ > 0) {
        void *p = ::mmap(nullptr, f.size_, PROT_READ, MAP_PRIVATE,
                         fd, 0);
        if (p == MAP_FAILED) {
            ::close(fd);
            return std::nullopt;
        }
        // The trace loaders sweep the whole payload once (checksum),
        // so ask for aggressive readahead up front.
        ::madvise(p, f.size_, MADV_WILLNEED);
        f.data_ = static_cast<const char *>(p);
    }
    // The mapping outlives the descriptor.
    ::close(fd);
    return f;
#else
    (void)path;
    return std::nullopt;
#endif
}

MappedFile::MappedFile(MappedFile &&o) noexcept
    : data_(std::exchange(o.data_, nullptr)),
      size_(std::exchange(o.size_, 0))
{
}

MappedFile &
MappedFile::operator=(MappedFile &&o) noexcept
{
    if (this != &o) {
        this->~MappedFile();
        data_ = std::exchange(o.data_, nullptr);
        size_ = std::exchange(o.size_, 0);
    }
    return *this;
}

MappedFile::~MappedFile()
{
#if PAICHAR_HAVE_MMAP
    if (data_ != nullptr)
        ::munmap(const_cast<char *>(data_), size_);
#endif
    data_ = nullptr;
    size_ = 0;
}

} // namespace paichar::trace
