#include "trace/trace_file.hpp"

#include <array>
#include <cstdio>
#include <memory>

#include "common/log.hpp"

namespace asd
{

namespace
{

constexpr std::array<char, 4> kMagic = {'A', 'S', 'D', 'T'};

/** Bytes per packed record: u64 addr + u32 gap + u8 flags. */
constexpr std::size_t kRecordBytes = 8 + 4 + 1;

/** Bytes before the first record: magic + u32 version + u64 count. */
constexpr std::size_t kHeaderBytes = 4 + 4 + 8;

struct FileCloser
{
    void
    operator()(std::FILE *f) const
    {
        if (f)
            std::fclose(f);
    }
};

using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void
putU32(std::FILE *f, std::uint32_t v)
{
    unsigned char buf[4];
    for (int i = 0; i < 4; ++i)
        buf[i] = static_cast<unsigned char>(v >> (8 * i));
    if (std::fwrite(buf, 1, sizeof(buf), f) != sizeof(buf))
        fatal("trace file: short write");
}

void
putU64(std::FILE *f, std::uint64_t v)
{
    unsigned char buf[8];
    for (int i = 0; i < 8; ++i)
        buf[i] = static_cast<unsigned char>(v >> (8 * i));
    if (std::fwrite(buf, 1, sizeof(buf), f) != sizeof(buf))
        fatal("trace file: short write");
}

std::uint32_t
getU32(std::FILE *f)
{
    unsigned char buf[4];
    if (std::fread(buf, 1, sizeof(buf), f) != sizeof(buf))
        fatal("trace file: truncated");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(buf[i]) << (8 * i);
    return v;
}

std::uint64_t
getU64(std::FILE *f)
{
    unsigned char buf[8];
    if (std::fread(buf, 1, sizeof(buf), f) != sizeof(buf))
        fatal("trace file: truncated");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(buf[i]) << (8 * i);
    return v;
}

/** Decode one packed record from @p buf (kRecordBytes long). */
MemAccess
decodeRecord(const unsigned char *buf)
{
    MemAccess acc;
    acc.addr = 0;
    for (int i = 0; i < 8; ++i)
        acc.addr |= static_cast<std::uint64_t>(buf[i]) << (8 * i);
    acc.gap = 0;
    for (int i = 0; i < 4; ++i)
        acc.gap |= static_cast<std::uint32_t>(buf[8 + i]) << (8 * i);
    const unsigned char flags = buf[12];
    acc.op = (flags & 1u) ? MemOp::Write : MemOp::Read;
    acc.dependent = (flags & 2u) != 0;
    return acc;
}

/**
 * Validate magic, version, and the header's record count against the
 * actual file size; leaves @p f positioned at the first record.
 * @return the record count.
 */
std::uint64_t
readHeader(std::FILE *f, const std::string &path)
{
    std::array<char, 4> magic{};
    if (std::fread(magic.data(), 1, magic.size(), f) != magic.size())
        fatal("trace file: truncated header: " + path);
    if (magic != kMagic)
        fatal("trace file: bad magic: " + path);
    const std::uint32_t version = getU32(f);
    if (version != kTraceFormatVersion)
        fatal("trace file: unsupported version: " + path);
    const std::uint64_t count = getU64(f);

    if (std::fseek(f, 0, SEEK_END) != 0)
        fatal("trace file: cannot seek: " + path);
    const long actual = std::ftell(f);
    if (actual < 0)
        fatal("trace file: cannot determine size: " + path);
    // Divide rather than multiply: count * kRecordBytes can wrap.
    const std::uint64_t body =
        static_cast<std::uint64_t>(actual) - kHeaderBytes;
    if (count != body / kRecordBytes || body % kRecordBytes != 0) {
        fatal("trace file: header claims " + std::to_string(count) +
              " records but file is " + std::to_string(actual) +
              " bytes — truncated or corrupt: " + path);
    }
    if (std::fseek(f, static_cast<long>(kHeaderBytes), SEEK_SET) != 0)
        fatal("trace file: cannot seek: " + path);
    return count;
}

} // namespace

void
writeTraceFile(const std::string &path,
               const std::vector<MemAccess> &accesses)
{
    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        fatal("cannot open trace file for writing: " + path);
    if (std::fwrite(kMagic.data(), 1, kMagic.size(), f.get()) !=
        kMagic.size()) {
        fatal("trace file: short write");
    }
    putU32(f.get(), kTraceFormatVersion);
    putU64(f.get(), accesses.size());
    for (const auto &acc : accesses) {
        putU64(f.get(), acc.addr);
        putU32(f.get(), acc.gap);
        const unsigned char flags = static_cast<unsigned char>(
            (acc.op == MemOp::Write ? 1u : 0u) |
            (acc.dependent ? 2u : 0u));
        if (std::fwrite(&flags, 1, 1, f.get()) != 1)
            fatal("trace file: short write");
    }
}

std::vector<MemAccess>
readTraceFile(const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        fatal("cannot open trace file: " + path);
    const std::uint64_t count = readHeader(f.get(), path);

    std::vector<MemAccess> out;
    out.reserve(count);
    unsigned char buf[kRecordBytes];
    for (std::uint64_t i = 0; i < count; ++i) {
        if (std::fread(buf, 1, sizeof(buf), f.get()) != sizeof(buf))
            fatal("trace file: truncated record: " + path);
        out.push_back(decodeRecord(buf));
    }
    return out;
}

} // namespace asd
