#include "core/library_set.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "codec/der.hh"
#include "io/atomic_file.hh"
#include "io/io_error.hh"
#include "io/source.hh"
#include "util/log.hh"

namespace lp
{

namespace
{

constexpr std::uint64_t kSetMagic = 0x4c50'5345'5431ull; // "LPSET1"
constexpr std::uint64_t kSetVersion = 1;
constexpr const char *kIndexFile = "lpset.idx";

std::string
joinPath(const std::string &dir, const std::string &file)
{
    return (std::filesystem::path(dir) / file).string();
}

/**
 * A shard's container file name: the workload name with anything
 * outside [A-Za-z0-9._-] replaced, made unique by the shard ordinal.
 */
std::string
shardFileName(std::size_t ordinal, const std::string &name)
{
    std::string safe;
    safe.reserve(name.size());
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' ||
                        c == '_' || c == '-';
        safe.push_back(ok ? c : '_');
    }
    return strfmt("shard-%03zu-%s.lpl", ordinal, safe.c_str());
}

bool
isShardFileName(const std::string &name)
{
    return name.size() > 4 &&
           name.compare(name.size() - 4, 4, ".lpl") == 0 &&
           !AtomicFileWriter::isTempFileName(name);
}

} // namespace

const char *
LibrarySet::indexFileName()
{
    return kIndexFile;
}

LibrarySet::LibrarySet(LibrarySet &&other) noexcept
    : dir_(std::move(other.dir_)), entries_(std::move(other.entries_)),
      recovery_(std::move(other.recovery_)),
      loaded_(std::move(other.loaded_))
{
}

LibrarySet &
LibrarySet::operator=(LibrarySet &&other) noexcept
{
    if (this != &other) {
        dir_ = std::move(other.dir_);
        entries_ = std::move(other.entries_);
        recovery_ = std::move(other.recovery_);
        loaded_ = std::move(other.loaded_);
    }
    return *this;
}

LibrarySet
LibrarySet::open(const std::string &dir)
{
    return openImpl(dir, false);
}

LibrarySet
LibrarySet::openRecover(const std::string &dir)
{
    return openImpl(dir, true);
}

LibrarySet
LibrarySet::openImpl(const std::string &dir, bool recover)
{
    const std::string indexPath = joinPath(dir, kIndexFile);

    LibrarySet set;
    set.dir_ = dir;

    Blob data;
    try {
        data = readWholeFile(indexPath, "library-set index");
    } catch (const std::exception &e) {
        if (!recover)
            throw;
        set.rescanShards(e.what());
        return set;
    }

    auto malformed = [&indexPath](const char *why) {
        return std::runtime_error(
            strfmt("'%s' is not a valid library-set index (%s)",
                   indexPath.c_str(), why));
    };

    // The integrity footer makes a torn index write detectable
    // before parsing: an index without an intact footer (torn,
    // truncated or corrupt) is never parsed.
    std::size_t payloadSize = 0;
    const bool intact =
        checksummedPayload(data.data(), data.size(), &payloadSize);
    try {
        if (!intact)
            throw malformed("torn or corrupt");
        DerReader top(ByteSpan(data.data(), payloadSize));
        DerReader seq = top.getSequence();
        if (seq.getUint() != kSetMagic ||
            seq.getUint() != kSetVersion)
            throw malformed("bad magic or version");
        const std::uint64_t count = seq.getUint();
        // Bound the reserve by what could possibly fit (every entry
        // encodes to at least one byte) so a corrupt count cannot
        // trigger a huge allocation before parsing fails.
        if (count > data.size())
            throw malformed("implausible shard count");
        set.entries_.reserve(count);
        for (std::uint64_t i = 0; i < count; ++i) {
            DerReader es = seq.getSequence();
            Entry e;
            e.name = es.getString();
            e.file = es.getString();
            e.points = es.getUint();
            e.hash = es.getUint();
            e.bytes = es.getUint();
            for (const Entry &have : set.entries_)
                if (have.name == e.name)
                    throw malformed("duplicate shard name");
            set.entries_.push_back(std::move(e));
        }
        if (!seq.atEnd())
            throw malformed("trailing bytes");
    } catch (const std::exception &e) {
        if (!recover)
            throw malformed(intact ? "malformed entries"
                                   : "torn or corrupt");
        set.entries_.clear();
        set.rescanShards(
            strfmt("index '%s' is torn or corrupt (%s)",
                   indexPath.c_str(), e.what()));
        return set;
    }

    set.loaded_.resize(set.entries_.size());
    if (recover)
        set.validateShardFiles();
    return set;
}

/**
 * Index-less recovery: rebuild the entry table from the shard
 * containers themselves. Shard names come from each container's
 * benchmark metadata; point counts and content hashes are recomputed
 * by loading each container once; each mapping is dropped as soon as
 * its entry is filled in. Unloadable containers are quarantined, not
 * fatal.
 */
void
LibrarySet::rescanShards(const std::string &reason)
{
    recovery_.degraded = true;
    recovery_.indexRebuilt = true;
    recovery_.notes.push_back(
        strfmt("index unusable, rescanned shards: %s",
               reason.c_str()));

    std::vector<std::string> files;
    std::error_code ec;
    for (const auto &de :
         std::filesystem::directory_iterator(dir_, ec)) {
        if (!de.is_regular_file())
            continue;
        const std::string name = de.path().filename().string();
        if (isShardFileName(name))
            files.push_back(name);
    }
    if (ec)
        throwIoError("scan", "library-set directory", dir_,
                     ec.value());
    // Shard files are named shard-%03zu-<name>.lpl, so sorting by
    // file name restores the original append order.
    std::sort(files.begin(), files.end());

    for (const std::string &file : files) {
        Entry e;
        e.file = file;
        const std::string path = joinPath(dir_, file);
        std::error_code sec;
        const std::uintmax_t bytes =
            std::filesystem::file_size(path, sec);
        e.bytes = sec ? 0 : static_cast<std::uint64_t>(bytes);
        try {
            const LivePointLibrary lib = LivePointLibrary::load(path);
            e.name = lib.benchmark();
            e.points = lib.size();
            e.hash = lib.contentHash();
        } catch (const std::exception &ex) {
            // Keep the shard listed (stable indices for grids that
            // reference it) but quarantined.
            e.name = file;
            e.quarantine = strfmt("shard '%s' failed rescan: %s",
                                  file.c_str(), ex.what());
            recovery_.notes.push_back(e.quarantine);
        }
        // Rescan can surface duplicate benchmark names (two shards
        // of the same workload); keep both, uniquified by file name,
        // so nothing is silently dropped.
        for (const Entry &have : entries_)
            if (!e.name.empty() && have.name == e.name)
                e.name = e.name + "@" + file;
        entries_.push_back(std::move(e));
    }
    loaded_.resize(entries_.size());
}

/**
 * Cheap per-entry validation for a recovering open with a healthy
 * index: the shard file must exist with the recorded size. Content
 * corruption inside a right-sized file is caught at shard() load
 * time (count + content hash verification).
 */
void
LibrarySet::validateShardFiles()
{
    for (Entry &e : entries_) {
        const std::string path = joinPath(dir_, e.file);
        std::error_code ec;
        const std::uintmax_t bytes =
            std::filesystem::file_size(path, ec);
        if (ec) {
            e.quarantine = ioErrorMsg("find", "shard container", path,
                                      ec.value());
        } else if (static_cast<std::uint64_t>(bytes) != e.bytes &&
                   e.bytes != 0) {
            e.quarantine = strfmt(
                "shard container '%s' is %llu bytes, index records "
                "%llu (torn write?)",
                path.c_str(),
                static_cast<unsigned long long>(bytes),
                static_cast<unsigned long long>(e.bytes));
        } else {
            continue;
        }
        recovery_.degraded = true;
        recovery_.notes.push_back(e.quarantine);
    }
}

std::size_t
LibrarySet::find(const std::string &name) const
{
    for (std::size_t i = 0; i < entries_.size(); ++i)
        if (entries_[i].name == name)
            return i;
    return npos;
}

std::string
LibrarySet::shardPath(std::size_t i) const
{
    return joinPath(dir_, entries_[i].file);
}

const LivePointLibrary &
LibrarySet::shard(std::size_t i) const
{
    std::lock_guard<std::mutex> lk(m_);
    if (!loaded_[i]) {
        const Entry &e = entries_[i];
        if (!e.quarantine.empty())
            throw std::runtime_error(strfmt(
                "library-set shard '%s' is quarantined (set '%s'): "
                "%s",
                e.name.c_str(), dir_.c_str(), e.quarantine.c_str()));
        auto lib = std::make_unique<LivePointLibrary>(
            LivePointLibrary::load(shardPath(i)));
        // The index metadata is load-bearing (campaign manifests key
        // resume state by it), so a swapped or stale shard file must
        // fail loudly, not replay different points.
        if (lib->size() != e.points ||
            lib->contentHash() != e.hash)
            throw std::runtime_error(
                strfmt("library-set shard '%s' does not match its "
                       "index entry (set '%s'): %zu points hash "
                       "%016llx, index says %llu points hash %016llx",
                       e.name.c_str(), dir_.c_str(), lib->size(),
                       static_cast<unsigned long long>(
                           lib->contentHash()),
                       static_cast<unsigned long long>(e.points),
                       static_cast<unsigned long long>(e.hash)));
        loaded_[i] = std::move(lib);
    }
    return *loaded_[i];
}

bool
LibrarySet::isLoaded(std::size_t i) const
{
    std::lock_guard<std::mutex> lk(m_);
    return loaded_[i] != nullptr;
}

std::size_t
LibrarySet::loadedCount() const
{
    std::lock_guard<std::mutex> lk(m_);
    std::size_t n = 0;
    for (const auto &p : loaded_)
        n += p != nullptr;
    return n;
}

void
LibrarySet::unload(std::size_t i) const
{
    std::lock_guard<std::mutex> lk(m_);
    loaded_[i].reset();
}

std::uint64_t
LibrarySet::mappedBytes() const
{
    std::lock_guard<std::mutex> lk(m_);
    std::uint64_t total = 0;
    for (const auto &p : loaded_)
        if (p)
            total += p->backingBytes();
    return total;
}

LibrarySetWriter::LibrarySetWriter(const std::string &dir) : dir_(dir)
{
    std::filesystem::create_directories(dir_);

    // Sweep staging temps a crashed writer left behind: they are not
    // referenced by any index and would otherwise accumulate.
    std::error_code ec;
    for (const auto &de :
         std::filesystem::directory_iterator(dir_, ec)) {
        if (!de.is_regular_file())
            continue;
        const std::string name = de.path().filename().string();
        if (AtomicFileWriter::isTempFileName(name)) {
            std::error_code rec;
            std::filesystem::remove(de.path(), rec);
            if (!rec)
                warn("library set '%s': removed orphaned temp '%s'",
                     dir_.c_str(), name.c_str());
        }
    }

    const std::string indexPath = joinPath(dir_, kIndexFile);
    if (std::filesystem::exists(indexPath)) {
        // Recovering open: a torn index rebuilds from the shards,
        // and quarantined (unloadable) shards are dropped so the
        // next writeIndex() publishes a repaired, fully-healthy set.
        LibrarySet set = LibrarySet::openRecover(dir_);
        for (const std::string &note : set.recovery().notes)
            warn("library set '%s': %s", dir_.c_str(), note.c_str());
        for (LibrarySet::Entry &e : set.entries_)
            if (e.quarantine.empty())
                entries_.push_back(std::move(e));
    }
}

void
LibrarySetWriter::addShard(const std::string &name,
                           const LivePointLibrary &lib)
{
    for (const LibrarySet::Entry &e : entries_)
        if (e.name == name)
            throw std::invalid_argument(
                strfmt("library set '%s' already has a shard '%s'",
                       dir_.c_str(), name.c_str()));
    LibrarySet::Entry e;
    e.name = name;
    e.file = shardFileName(entries_.size(), name);
    e.points = lib.size();
    e.hash = lib.contentHash();
    const std::string path = joinPath(dir_, e.file);
    lib.save(path);
    std::error_code ec;
    const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
    e.bytes = ec ? 0 : static_cast<std::uint64_t>(bytes);
    entries_.push_back(std::move(e));
    writeIndex();
}

void
LibrarySetWriter::writeIndex() const
{
    DerWriter w;
    w.beginSequence();
    w.putUint(kSetMagic);
    w.putUint(kSetVersion);
    w.putUint(entries_.size());
    for (const LibrarySet::Entry &e : entries_) {
        w.beginSequence();
        w.putString(e.name);
        w.putString(e.file);
        w.putUint(e.points);
        w.putUint(e.hash);
        w.putUint(e.bytes);
        w.endSequence();
    }
    w.endSequence();
    Blob data = w.finish();
    appendChecksumFooter(data);

    // write-temp → fsync → rename → dir-fsync: the index on disk is
    // always one of the valid states, never a torn write, and the
    // publish is durable before the writer moves on.
    writeFileAtomic(joinPath(dir_, kIndexFile), data.data(),
                    data.size(), "library-set index");
}

} // namespace lp
