#include "snapshot/snapshot.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <fstream>

#include "common/log.hpp"
#include "common/random.hpp"
#include "common/stats.hpp"

namespace asd
{

namespace
{

constexpr std::array<char, 8> kMagic = {'a', 's', 'd', 's',
                                        'n', 'a', 'p', '\0'};

/**
 * Slice-by-8 CRC tables: tables[0] is the bytewise table of the
 * reflected polynomial, and tables[k][i] is the CRC of byte i followed
 * by k zero bytes, so eight table lookups advance the CRC by one
 * 64-bit word.
 */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables
buildCrcTables()
{
    CrcTables tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        tables[0][i] = c;
    }
    for (std::size_t k = 1; k < tables.size(); ++k) {
        for (std::size_t i = 0; i < 256; ++i) {
            const std::uint32_t prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
        }
    }
    return tables;
}

constexpr CrcTables kCrcTables = buildCrcTables();

/** Overwrite the little-endian @p v at @p at. */
template <typename T>
void
patchLe(std::vector<std::uint8_t> &out, std::size_t at, T v)
{
    for (std::size_t i = 0; i < sizeof(T); ++i)
        out[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/** Where the header's config hash and section count sit. */
constexpr std::size_t kHashAt = kMagic.size() + 4;
constexpr std::size_t kCountAt = kHashAt + 8;

/** Append @p size bytes of @p data. */
void
putBytes(std::vector<std::uint8_t> &out, const void *data,
         std::size_t size)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    out.insert(out.end(), p, p + size);
}

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size)
{
    const CrcTables &t = kCrcTables;
    std::uint32_t crc = 0xFFFFFFFFu;
    for (; size >= 8; data += 8, size -= 8) {
        const std::uint32_t lo = crc ^ detail::loadLe<std::uint32_t>(data);
        const std::uint32_t hi = detail::loadLe<std::uint32_t>(data + 4);
        crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
              t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
              t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
              t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; size > 0; ++data, --size)
        crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

std::uint64_t
fnv1a64(std::string_view text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        hash ^= static_cast<std::uint8_t>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

// --- SnapshotWriter ------------------------------------------------

void
SnapshotWriter::startImage()
{
    putBytes(image_, kMagic.data(), kMagic.size());
    detail::appendLe<std::uint32_t>(image_, kSnapshotFormatVersion);
    detail::appendLe<std::uint64_t>(image_, 0); // config hash
    detail::appendLe<std::uint32_t>(image_, 0); // section count
}

void
SnapshotWriter::beginSection(std::string_view name)
{
    panicIfNot(!finished_, "SnapshotWriter: write after finish()");
    panicIfNot(!open_, "SnapshotWriter: nested beginSection");
    for (const std::string &begun : names_)
        panicIfNot(begun != name, "SnapshotWriter: duplicate section name");
    if (image_.empty())
        startImage();
    names_.emplace_back(name);
    detail::appendLe(image_, static_cast<std::uint32_t>(name.size()));
    putBytes(image_, name.data(), name.size());
    detail::appendLe<std::uint64_t>(image_, 0); // payload length
    detail::appendLe<std::uint32_t>(image_, 0); // payload CRC
    payload_at_ = image_.size();
    open_ = true;
}

void
SnapshotWriter::endSection()
{
    panicIfNot(open_, "SnapshotWriter: endSection without begin");
    // The payload length and CRC sit just ahead of the payload.
    const std::size_t size = image_.size() - payload_at_;
    patchLe<std::uint64_t>(image_, payload_at_ - 12, size);
    patchLe(image_, payload_at_ - 4,
            crc32(image_.data() + payload_at_, size));
    open_ = false;
}

void
SnapshotWriter::writeOutsideSection()
{
    panic("SnapshotWriter: write outside a section");
}

void
SnapshotWriter::u32(std::uint32_t v)
{
    if (!open_) [[unlikely]]
        writeOutsideSection();
    detail::appendLe<std::uint32_t>(image_, v);
}

void
SnapshotWriter::i64(std::int64_t v)
{
    u64(static_cast<std::uint64_t>(v));
}

void
SnapshotWriter::f64(double v)
{
    u64(std::bit_cast<std::uint64_t>(v));
}

void
SnapshotWriter::str(std::string_view v)
{
    u32(static_cast<std::uint32_t>(v.size()));
    putBytes(image_, v.data(), v.size());
}

void
SnapshotWriter::vecU64(const std::vector<std::uint64_t> &v)
{
    u64(v.size());
    for (const std::uint64_t value : v)
        u64(value);
}

std::vector<std::uint8_t>
SnapshotWriter::finish(std::uint64_t config_hash)
{
    panicIfNot(!open_, "SnapshotWriter: finish with open section");
    panicIfNot(!finished_, "SnapshotWriter: double finish");
    finished_ = true;
    if (image_.empty())
        startImage();
    patchLe(image_, kHashAt, config_hash);
    patchLe(image_, kCountAt, static_cast<std::uint32_t>(names_.size()));
    return std::move(image_);
}

// --- SnapshotReader ------------------------------------------------

SnapshotReader::SnapshotReader(const std::vector<std::uint8_t> &bytes)
    : data_(bytes.data()), size_(bytes.size())
{
    parse();
}

SnapshotReader::SnapshotReader(std::vector<std::uint8_t> &&bytes)
    : owned_(std::move(bytes)), data_(owned_.data()),
      size_(owned_.size())
{
    parse();
}

void
SnapshotReader::parse()
{
    // Parse with a local cursor; primitive reads reuse the member
    // cursor only after openSection().
    std::size_t pos = 0;
    const auto take = [&](std::size_t n, const char *what) {
        if (pos + n > size_ || pos + n < pos)
            throw SnapshotError(std::string("snapshot truncated in ") +
                                what);
        pos += n;
        return pos - n;
    };
    const auto takeU32 = [&](const char *what) {
        return detail::loadLe<std::uint32_t>(data_ + take(4, what));
    };
    const auto takeU64 = [&](const char *what) {
        return detail::loadLe<std::uint64_t>(data_ + take(8, what));
    };

    const std::size_t magic_at = take(kMagic.size(), "magic");
    for (std::size_t i = 0; i < kMagic.size(); ++i) {
        if (data_[magic_at + i] !=
            static_cast<std::uint8_t>(kMagic[i]))
            throw SnapshotError(
                "not a snapshot: bad magic (expected asdsnap)");
    }
    const std::uint32_t version = takeU32("format version");
    if (version != kSnapshotFormatVersion)
        throw SnapshotError(
            "unsupported snapshot format version " +
            std::to_string(version) + " (this build reads v" +
            std::to_string(kSnapshotFormatVersion) + ")");
    config_hash_ = takeU64("config hash");
    const std::uint32_t count = takeU32("section count");

    for (std::uint32_t s = 0; s < count; ++s) {
        const std::uint32_t name_len = takeU32("section name length");
        const std::size_t name_at = take(name_len, "section name");
        Section section;
        section.name.assign(
            reinterpret_cast<const char *>(data_ + name_at),
            name_len);
        const std::uint64_t payload_len =
            takeU64("section payload length");
        const std::uint32_t stored_crc = takeU32("section CRC");
        section.size = static_cast<std::size_t>(payload_len);
        section.offset =
            take(section.size, section.name.empty()
                                   ? "section payload"
                                   : section.name.c_str());
        const std::uint32_t actual_crc =
            crc32(data_ + section.offset, section.size);
        if (actual_crc != stored_crc)
            throw SnapshotError("snapshot section \"" + section.name +
                                "\" is corrupt (CRC mismatch)");
        if (find(section.name) != nullptr)
            throw SnapshotError("snapshot has duplicate section \"" +
                                section.name + "\"");
        sections_.push_back(std::move(section));
    }
    if (pos != size_)
        throw SnapshotError("snapshot has trailing garbage after "
                            "the last section");
}

void
SnapshotReader::requireConfigHash(std::uint64_t expected) const
{
    if (config_hash_ != expected) {
        char text[64];
        std::snprintf(text, sizeof(text),
                      "%016llx, expected %016llx",
                      static_cast<unsigned long long>(config_hash_),
                      static_cast<unsigned long long>(expected));
        throw SnapshotError(
            std::string("snapshot config hash mismatch: snapshot "
                        "was taken under ") +
            text);
    }
}

const SnapshotReader::Section *
SnapshotReader::find(std::string_view name) const
{
    for (const Section &section : sections_) {
        if (section.name == name)
            return &section;
    }
    return nullptr;
}

bool
SnapshotReader::hasSection(std::string_view name) const
{
    return find(name) != nullptr;
}

void
SnapshotReader::openSection(std::string_view name)
{
    panicIfNot(!open_, "SnapshotReader: nested openSection");
    const Section *section = find(name);
    if (!section)
        throw SnapshotError("snapshot is missing section \"" +
                            std::string(name) + "\"");
    open_name_ = section->name;
    cursor_ = section->offset;
    end_ = section->offset + section->size;
    open_ = true;
}

void
SnapshotReader::endSection()
{
    panicIfNot(open_, "SnapshotReader: endSection without open");
    if (cursor_ != end_)
        throw SnapshotError(
            "snapshot section \"" + open_name_ + "\" has " +
            std::to_string(end_ - cursor_) +
            " unread trailing bytes (layout mismatch)");
    open_ = false;
}

void
SnapshotReader::readOutsideSection()
{
    panic("SnapshotReader: read outside a section");
}

void
SnapshotReader::sectionTooShort() const
{
    throw SnapshotError("snapshot section \"" + open_name_ +
                        "\" is too short (layout mismatch)");
}

void
SnapshotReader::malformedBool() const
{
    throw SnapshotError("snapshot section \"" + open_name_ +
                        "\" has a malformed bool");
}

std::uint32_t
SnapshotReader::u32()
{
    need(4);
    const auto v = detail::loadLe<std::uint32_t>(data_ + cursor_);
    cursor_ += 4;
    return v;
}

std::int64_t
SnapshotReader::i64()
{
    return static_cast<std::int64_t>(u64());
}

double
SnapshotReader::f64()
{
    return std::bit_cast<double>(u64());
}

std::string
SnapshotReader::str()
{
    const std::uint32_t len = u32();
    need(len);
    std::string v(
        reinterpret_cast<const char *>(data_ + cursor_), len);
    cursor_ += len;
    return v;
}

std::vector<std::uint64_t>
SnapshotReader::vecU64()
{
    const std::uint64_t n = count(8);
    std::vector<std::uint64_t> v;
    v.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i)
        v.push_back(u64());
    return v;
}

std::uint64_t
SnapshotReader::count(std::size_t item_bytes)
{
    const std::uint64_t n = u64();
    if (n > (end_ - cursor_) / item_bytes)
        throw SnapshotError("snapshot section \"" + open_name_ +
                            "\" has an oversized array");
    return n;
}

void
SnapshotReader::check(bool ok, const char *what)
{
    if (!ok)
        throw SnapshotError(what);
}

// --- SnapshotIo --------------------------------------------------

void
SnapshotIo::beginSection(std::string_view name)
{
    if (reader_)
        reader_->openSection(name);
    else
        writer_->beginSection(name);
}

void
SnapshotIo::endSection()
{
    if (reader_)
        reader_->endSection();
    else
        writer_->endSection();
}

void
SnapshotIo::vecU64(std::vector<std::uint64_t> &v)
{
    if (reader_)
        v = reader_->vecU64();
    else
        writer_->vecU64(v);
}

void
SnapshotIo::vecU64(std::vector<std::uint64_t> &v, const char *what)
{
    expect(v.size(), what);
    for (std::uint64_t &value : v)
        u64(value);
}

void
SnapshotIo::counter(Counter &c)
{
    if (reader_)
        c.restore(reader_->u64());
    else
        writer_->u64(c.value());
}

void
SnapshotIo::rng(Rng &rng)
{
    std::array<std::uint64_t, 4> state = rng.state();
    for (std::uint64_t &word : state)
        u64(word);
    if (reader_)
        rng.setState(state);
}

void
SnapshotIo::component(Snapshottable &c)
{
    if (reader_)
        c.loadState(*reader_);
    else
        c.saveState(*writer_);
}

std::uint64_t
SnapshotIo::count(std::uint64_t n, std::size_t item_bytes)
{
    if (reader_)
        return reader_->count(item_bytes);
    writer_->u64(n);
    return n;
}

// --- Snapshottable -------------------------------------------------

void
Snapshottable::saveState(SnapshotWriter &w) const
{
    SnapshotIo io(w);
    // snapshot() only reads members when saving.
    const_cast<Snapshottable *>(this)->snapshot(io);
}

void
Snapshottable::loadState(SnapshotReader &r)
{
    SnapshotIo io(r);
    snapshot(io);
}

// --- Files ---------------------------------------------------------

void
writeSnapshotFile(const std::string &path,
                  const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw SnapshotError("cannot open snapshot file for writing: " +
                            path);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out)
        throw SnapshotError("short write to snapshot file: " + path);
}

std::vector<std::uint8_t>
readSnapshotFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        throw SnapshotError("cannot open snapshot file: " + path);
    const std::streamsize size = in.tellg();
    in.seekg(0);
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
    in.read(reinterpret_cast<char *>(bytes.data()), size);
    if (!in)
        throw SnapshotError("short read from snapshot file: " + path);
    return bytes;
}

} // namespace asd
