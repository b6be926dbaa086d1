#include "obs/snapshot.hh"

#include <cerrno>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "obs/spc.hh"
#include "support/logging.hh"

namespace pca::obs
{

namespace
{

using snapfmt::Header;
using snapfmt::Record;

std::size_t
fileSize(std::size_t n_counters)
{
    return sizeof(Header) + n_counters * sizeof(Record);
}

Header *
headerOf(void *mem)
{
    return static_cast<Header *>(mem);
}

Record *
recordsOf(void *mem)
{
    return reinterpret_cast<Record *>(static_cast<char *>(mem) +
                                      sizeof(Header));
}

} // namespace

SpcSnapshotWriter::SpcSnapshotWriter(const std::string &path,
                                     std::size_t num_counters)
    : filePath(path), nCounters(num_counters)
{
    pca_assert(num_counters > 0);
    mapLen = fileSize(nCounters);
    fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_TRUNC, 0644);
    if (fd < 0)
        pca_fatal("SPC snapshot: cannot create ", path, ": ",
                  std::strerror(errno));
    if (::ftruncate(fd, static_cast<off_t>(mapLen)) != 0)
        pca_fatal("SPC snapshot: cannot size ", path, ": ",
                  std::strerror(errno));
    mem = ::mmap(nullptr, mapLen, PROT_READ | PROT_WRITE, MAP_SHARED,
                 fd, 0);
    if (mem == MAP_FAILED)
        pca_fatal("SPC snapshot: cannot map ", path, ": ",
                  std::strerror(errno));

    Header *h = headerOf(mem);
    std::memcpy(h->magic, snapfmt::magic, sizeof h->magic);
    h->version = snapfmt::layoutVersion;
    h->numCounters = static_cast<std::uint32_t>(nCounters);
    std::memset(h->pad, 0, sizeof h->pad);
    __atomic_store_n(&h->seq, std::uint64_t{0}, __ATOMIC_RELEASE);
}

SpcSnapshotWriter::~SpcSnapshotWriter()
{
    if (mem != nullptr && mem != MAP_FAILED)
        ::munmap(mem, mapLen);
    if (fd >= 0)
        ::close(fd);
}

void
SpcSnapshotWriter::publishValues(const std::vector<std::string> &names,
                                 const std::vector<Count> &values)
{
    pca_assert(names.size() == nCounters &&
               values.size() == nCounters);
    Header *h = headerOf(mem);
    Record *recs = recordsOf(mem);

    // Seqlock write side: odd sequence while the body is in flux.
    const std::uint64_t s =
        __atomic_load_n(&h->seq, __ATOMIC_RELAXED);
    __atomic_store_n(&h->seq, s + 1, __ATOMIC_RELAXED);
    __atomic_thread_fence(__ATOMIC_RELEASE);

    for (std::size_t i = 0; i < nCounters; ++i) {
        std::memset(recs[i].name, 0, snapfmt::nameBytes);
        std::strncpy(recs[i].name, names[i].c_str(),
                     snapfmt::nameBytes - 1);
        recs[i].value = values[i];
    }
    h->publishes = ++publishCount;

    __atomic_thread_fence(__ATOMIC_RELEASE);
    __atomic_store_n(&h->seq, s + 2, __ATOMIC_RELEASE);
}

void
SpcSnapshotWriter::publish()
{
    std::vector<std::string> names;
    std::vector<Count> values;
    names.reserve(numSpcs);
    values.reserve(numSpcs);
    for (Spc c : allSpcs()) {
        names.push_back(spcName(c));
        values.push_back(spcValue(c));
    }
    publishValues(names, values);
}

SpcSnapshotReader::~SpcSnapshotReader()
{
    if (mem != nullptr && mem != MAP_FAILED)
        ::munmap(mem, mapLen);
    if (fd >= 0)
        ::close(fd);
}

Status
SpcSnapshotReader::open(const std::string &path)
{
    pca_assert(mem == nullptr);
    fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return Status(StatusCode::NotFound,
                      "SPC snapshot: cannot open " + path + ": " +
                          std::strerror(errno));
    struct stat st;
    if (::fstat(fd, &st) != 0 ||
        static_cast<std::size_t>(st.st_size) < sizeof(Header)) {
        ::close(fd);
        fd = -1;
        return Status(StatusCode::InvalidArgument,
                      "SPC snapshot: " + path + " is too small");
    }
    mapLen = static_cast<std::size_t>(st.st_size);
    mem = ::mmap(nullptr, mapLen, PROT_READ, MAP_SHARED, fd, 0);
    if (mem == MAP_FAILED) {
        mem = nullptr;
        ::close(fd);
        fd = -1;
        return Status(StatusCode::Internal,
                      "SPC snapshot: cannot map " + path);
    }
    const Header *h = headerOf(mem);
    if (std::memcmp(h->magic, snapfmt::magic, sizeof h->magic) != 0 ||
        h->version != snapfmt::layoutVersion) {
        Status st_bad(StatusCode::InvalidArgument,
                      "SPC snapshot: " + path +
                          " has wrong magic or layout version");
        ::munmap(mem, mapLen);
        mem = nullptr;
        ::close(fd);
        fd = -1;
        return st_bad;
    }
    nCounters = h->numCounters;
    if (mapLen < fileSize(nCounters)) {
        ::munmap(mem, mapLen);
        mem = nullptr;
        ::close(fd);
        fd = -1;
        return Status(StatusCode::InvalidArgument,
                      "SPC snapshot: " + path +
                          " is truncated");
    }
    return OkStatus();
}

StatusOr<SpcSnapshot>
SpcSnapshotReader::read() const
{
    pca_assert(mem != nullptr);
    const Header *h = headerOf(const_cast<void *>(mem));
    const Record *recs = recordsOf(const_cast<void *>(mem));

    // Seqlock read side: copy the body between two matching even
    // sequence observations. The retry budget only trips if a writer
    // publishes pathologically fast (or died mid-write). A failed
    // attempt yields, so a reader sharing a CPU with a hot writer
    // lets it finish its publish instead of spinning through the
    // budget inside one timeslice.
    for (int attempt = 0; attempt < 1000; ++attempt) {
        if (attempt > 0)
            std::this_thread::yield();
        const std::uint64_t s1 =
            __atomic_load_n(&h->seq, __ATOMIC_ACQUIRE);
        if (s1 & 1)
            continue;
        SpcSnapshot snap;
        snap.seq = s1;
        snap.counters.reserve(nCounters);
        for (std::size_t i = 0; i < nCounters; ++i) {
            char name[snapfmt::nameBytes];
            std::memcpy(name, recs[i].name, snapfmt::nameBytes);
            name[snapfmt::nameBytes - 1] = '\0';
            snap.counters.emplace_back(name, recs[i].value);
        }
        snap.publishes = h->publishes;
        __atomic_thread_fence(__ATOMIC_ACQUIRE);
        const std::uint64_t s2 =
            __atomic_load_n(&h->seq, __ATOMIC_ACQUIRE);
        if (s1 == s2)
            return snap;
    }
    return Status(StatusCode::Unavailable,
                  "SPC snapshot: torn reads exhausted the retry "
                  "budget (writer too fast or dead)");
}

} // namespace pca::obs
