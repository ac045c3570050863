#ifndef ASD_SNAPSHOT_SNAPSHOT_HPP
#define ASD_SNAPSHOT_SNAPSHOT_HPP

/**
 * @file
 * Versioned, deterministic binary checkpoint format ("asdsnap/v1")
 * plus the Snapshottable interface every stateful simulator component
 * implements. A snapshot file is:
 *
 *   magic "asdsnap\0" | u32 format version | u64 config hash |
 *   u32 section count | sections...
 *
 * and each section is:
 *
 *   u32 name length | name bytes | u64 payload length |
 *   u32 CRC32(payload) | payload bytes
 *
 * All integers are little-endian. Sections are written in a fixed
 * order by the producer, so saving, restoring, and saving again
 * yields byte-identical files — the round-trip identity the snapshot
 * tests pin. The config hash binds a snapshot to the machine
 * configuration that produced it; readers reject mismatches instead
 * of silently restoring into a differently-shaped machine.
 *
 * Format evolution policy: any change to the header, the section
 * framing, or any section's payload layout bumps
 * kSnapshotFormatVersion; readers accept exactly one version. There
 * is no cross-version migration — snapshots are cheap to regenerate.
 */

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace asd
{

class Counter;
class Rng;
class Snapshottable;

/**
 * Current (and only accepted) snapshot format version.
 * v2: RunOptions metadata grew the GHB correlation mode and the
 * phase-adaptive tuner block; GHB state grew delta-correlation
 * fields; tuned runs add a "tun" section.
 * v3: OS memory model + multi-tenant engine. The CPU's pending
 * access grew the address-space id, RunOptions metadata grew the
 * VM walker kind plus the "os"/"tenants" blocks, telemetry epochs
 * grew OS/tenant columns, and OS-enabled machines add an "os"
 * section.
 * v4: the "cli" section stores every RunOptions field as a (key,
 * text) pair in field-table order instead of a fixed binary layout.
 * v5: one translation path. VM mode saves its kernel in the "os"
 * section (the "vm" section and its "sys" presence flag are gone),
 * the kernel leads with its frame source, and frame-pool entries
 * hold a page key instead of (space, vpn).
 * v6: the "tel" section follows the telemetry column table: one
 * baseline value per column, and per epoch the column values in
 * table order (the derived percentages are recomputed on load).
 * v7: every memory-side contender saves the shared buffer/scheduler
 * state with its epochs completed (the "ms" section of the non-ASD
 * contenders gains one u64; ASD's bytes are unchanged).
 * v8: one DRAM channel. The "dram" section stores the data bus's
 * free cycle as a bare u64 instead of a one-element vector (8 bytes
 * fewer).
 */
inline constexpr std::uint32_t kSnapshotFormatVersion = 8;

/**
 * Any way a snapshot can be unusable: truncated or corrupt bytes,
 * wrong magic, unsupported format version, CRC mismatch, missing
 * section, or a config hash that does not match the restoring
 * machine. Thrown by SnapshotReader; callers either surface it
 * (asdsim_cli fatals) or fall back to a cold start (warm-start
 * sweeps).
 */
class SnapshotError : public std::runtime_error
{
  public:
    explicit SnapshotError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

namespace detail
{

/** The little-endian unsigned integer at @p p. */
template <typename T>
T
loadLe(const std::uint8_t *p)
{
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
        v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
    return v;
}

/** Append @p v to @p out little-endian, one word at a time. */
template <typename T>
void
appendLe(std::vector<std::uint8_t> &out, T v)
{
    std::uint8_t bytes[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i)
        bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
    out.insert(out.end(), bytes, bytes + sizeof(T));
}

} // namespace detail

/** CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of @p size bytes. */
std::uint32_t crc32(const std::uint8_t *data, std::size_t size);

/** FNV-1a 64-bit hash of @p text (used for config hashes). */
std::uint64_t fnv1a64(std::string_view text);

/**
 * Serializes primitive values into named sections of one image
 * buffer. Usage: beginSection/primitives/endSection per component,
 * then finish(config_hash) exactly once. Each section is framed in
 * place: beginSection reserves its length and CRC, endSection fills
 * them in, and finish() patches the header and hands the buffer over
 * without copying a payload.
 */
class SnapshotWriter
{
  public:
    /** Open a new section; panics on nesting or duplicate names. */
    void beginSection(std::string_view name);

    /** Close the currently open section. */
    void endSection();

    void
    u8(std::uint8_t v)
    {
        if (!open_) [[unlikely]]
            writeOutsideSection();
        image_.push_back(v);
    }

    void u32(std::uint32_t v);

    void
    u64(std::uint64_t v)
    {
        if (!open_) [[unlikely]]
            writeOutsideSection();
        detail::appendLe(image_, v);
    }

    void i64(std::int64_t v);
    void f64(double v);
    void b(bool v) { u8(v ? 1 : 0); }
    void str(std::string_view v);
    void vecU64(const std::vector<std::uint64_t> &v);

    /** Assemble the snapshot image. No further writes afterwards. */
    std::vector<std::uint8_t> finish(std::uint64_t config_hash);

  private:
    /** Start the image with a header whose hash and count finish()
     *  fills in. */
    void startImage();
    [[noreturn]] static void writeOutsideSection();

    std::vector<std::uint8_t> image_;
    std::vector<std::string> names_; //!< sections begun so far
    std::size_t payload_at_ = 0;     //!< the open section's payload
    bool open_ = false;
    bool finished_ = false;
};

/**
 * Parses and validates a snapshot image up front (magic, version,
 * framing, every section CRC), then serves bounds-checked primitive
 * reads from one open section at a time. Every malformed input throws
 * SnapshotError with a message naming what was wrong.
 *
 * An lvalue image is borrowed: the reader keeps a pointer into it, so
 * the image must outlive the reader and stay unmodified while it
 * reads. An rvalue image (a moved vector, a function's result) is
 * owned. Either way no byte is copied.
 */
class SnapshotReader
{
  public:
    /** Parse @p bytes, borrowed; throws SnapshotError on any defect. */
    explicit SnapshotReader(const std::vector<std::uint8_t> &bytes);

    /** Parse @p bytes, owned; throws SnapshotError on any defect. */
    explicit SnapshotReader(std::vector<std::uint8_t> &&bytes);

    // A copy would point into the original's owned image.
    SnapshotReader(const SnapshotReader &) = delete;
    SnapshotReader &operator=(const SnapshotReader &) = delete;

    /** Config hash recorded in the header. */
    std::uint64_t configHash() const { return config_hash_; }

    /** Throw unless the header hash equals @p expected. */
    void requireConfigHash(std::uint64_t expected) const;

    bool hasSection(std::string_view name) const;

    /** Position the read cursor at the start of section @p name. */
    void openSection(std::string_view name);

    /** Close the section; throws if payload bytes remain unread. */
    void endSection();

    std::uint8_t
    u8()
    {
        need(1);
        return data_[cursor_++];
    }

    std::uint32_t u32();

    std::uint64_t
    u64()
    {
        need(8);
        const auto v = detail::loadLe<std::uint64_t>(data_ + cursor_);
        cursor_ += 8;
        return v;
    }

    std::int64_t i64();
    double f64();

    bool
    b()
    {
        const std::uint8_t v = u8();
        if (v > 1) [[unlikely]]
            malformedBool();
        return v != 0;
    }

    std::string str();
    std::vector<std::uint64_t> vecU64();

    /**
     * Read an element count for a sequence whose elements take at
     * least @p item_bytes each; throws SnapshotError when that many
     * elements cannot fit in the rest of the section, so a corrupt
     * count is rejected before anything is allocated for it.
     */
    std::uint64_t count(std::size_t item_bytes);

    /**
     * Throw SnapshotError(@p what) unless @p ok (shape checks).
     * @p what is a literal; like panicIfNot(), a passing check builds
     * no message.
     */
    static void check(bool ok, const char *what);

  private:
    struct Section
    {
        std::string name;
        std::size_t offset = 0; //!< payload start within the image
        std::size_t size = 0;
    };

    /** Validate the image and index its sections. */
    void parse();
    const Section *find(std::string_view name) const;

    /** Throw unless @p n more bytes remain in the open section. */
    void
    need(std::size_t n) const
    {
        if (!open_) [[unlikely]]
            readOutsideSection();
        if (n > end_ - cursor_) [[unlikely]]
            sectionTooShort();
    }

    // The failure paths of need() and b(), kept out of line.
    [[noreturn]] static void readOutsideSection();
    [[noreturn]] void sectionTooShort() const;
    [[noreturn]] void malformedBool() const;

    std::vector<std::uint8_t> owned_; //!< the image when owned
    const std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
    std::vector<Section> sections_;
    std::uint64_t config_hash_ = 0;
    std::string open_name_;
    std::size_t cursor_ = 0;
    std::size_t end_ = 0;
    bool open_ = false;
};

/** Write @p bytes to @p path; throws SnapshotError on I/O failure. */
void writeSnapshotFile(const std::string &path,
                       const std::vector<std::uint8_t> &bytes);

/** Read @p path fully; throws SnapshotError on I/O failure. */
std::vector<std::uint8_t> readSnapshotFile(const std::string &path);

/**
 * One snapshot layout, both directions. Wraps either a
 * SnapshotWriter or a SnapshotReader; each field method takes a
 * reference and, when saving, writes the value or, when loading,
 * reads into it. A component's Snapshottable::snapshot() therefore
 * states its layout once and cannot save a field it does not restore.
 * The load-time checks (check, expect, enumeration, count) validate
 * untrusted input when loading and only write when saving.
 */
class SnapshotIo
{
  public:
    explicit SnapshotIo(SnapshotWriter &w) : writer_(&w) {}
    explicit SnapshotIo(SnapshotReader &r) : reader_(&r) {}

    /** @retval true when restoring, false when saving. */
    bool loading() const { return reader_ != nullptr; }

    /** Open a section (begin on save, open on load). */
    void beginSection(std::string_view name);
    /** Close it; on load, throws if payload bytes remain unread. */
    void endSection();

    /** Integer fields, by wire width; T is the member's type. */
    template <std::integral T>
    void
    u32(T &v)
    {
        if (reader_)
            v = static_cast<T>(reader_->u32());
        else
            writer_->u32(static_cast<std::uint32_t>(v));
    }

    template <std::integral T>
    void
    u64(T &v)
    {
        if (reader_)
            v = static_cast<T>(reader_->u64());
        else
            writer_->u64(static_cast<std::uint64_t>(v));
    }

    template <std::integral T>
    void
    i64(T &v)
    {
        if (reader_)
            v = static_cast<T>(reader_->i64());
        else
            writer_->i64(static_cast<std::int64_t>(v));
    }

    void
    b(bool &v)
    {
        if (reader_)
            v = reader_->b();
        else
            writer_->b(v);
    }

    void vecU64(std::vector<std::uint64_t> &v);
    /**
     * Same layout for a vector whose length is geometry: on load the
     * stored length must equal v.size() (else SnapshotError(@p what)).
     */
    void vecU64(std::vector<std::uint64_t> &v, const char *what);
    void counter(Counter &c);
    /** The xoshiro state words of @p rng. */
    void rng(Rng &rng);

    /**
     * A map from u64 to u64 as a count and (key, value) pairs in
     * ascending key order, so an unordered map saves byte-identically.
     * On load the map is rebuilt; a duplicate key throws
     * SnapshotError(@p what).
     */
    template <typename Map>
    void
    u64Map(Map &map, const char *what)
    {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> entries(
            map.begin(), map.end());
        std::sort(entries.begin(), entries.end());
        const std::uint64_t n = count(entries.size(), 16);
        if (reader_)
            entries.assign(n, {});
        for (auto &[key, value] : entries) {
            u64(key);
            u64(value);
        }
        if (reader_) {
            map.clear();
            for (const auto &entry : entries)
                check(map.insert(entry).second, what);
        }
    }

    /** A nested component, through its saveState/loadState. */
    void component(Snapshottable &c);

    /**
     * An element count: @p n is written on save; on load the count is
     * read through SnapshotReader::count (each element takes at least
     * @p item_bytes) and returned, so a corrupt count is rejected
     * before the caller sizes a container for it.
     */
    std::uint64_t count(std::uint64_t n, std::size_t item_bytes);

    /** On load, throw SnapshotError(@p what) unless @p ok. */
    void
    check(bool ok, const char *what) const
    {
        if (reader_ && !ok)
            throw SnapshotError(what);
    }

    /**
     * Geometry the restoring machine must share (bank count, thread
     * count, table size): @p value is written on save; on load the
     * stored value must equal it. T picks the wire width.
     */
    template <typename T>
    void
    expect(T value, const char *what)
    {
        static_assert(std::is_same_v<T, bool> ||
                          std::is_same_v<T, std::uint8_t> ||
                          std::is_same_v<T, std::uint32_t> ||
                          std::is_same_v<T, std::uint64_t>,
                      "expect() takes a bool, u8, u32 or u64");
        T stored = value;
        if constexpr (std::is_same_v<T, bool>)
            b(stored);
        else if constexpr (sizeof(T) == 1)
            u8(stored);
        else if constexpr (sizeof(T) == 4)
            u32(stored);
        else
            u64(stored);
        check(stored == value, what);
    }

    /** An enum stored as a u8; on load it must not exceed @p last. */
    template <typename E>
    void
    enumeration(E &e, E last, const char *what)
    {
        std::uint8_t raw = static_cast<std::uint8_t>(e);
        u8(raw);
        check(raw <= static_cast<std::uint8_t>(last), what);
        if (reader_)
            e = static_cast<E>(raw);
    }

  private:
    void
    u8(std::uint8_t &v)
    {
        if (reader_)
            v = reader_->u8();
        else
            writer_->u8(v);
    }

    SnapshotWriter *writer_ = nullptr;
    SnapshotReader *reader_ = nullptr;
};

/**
 * Save/restore contract implemented by every stateful component.
 * A component overrides snapshot() once: it names every field of its
 * dynamic state (never configuration — that is re-derived from the
 * config the restoring machine was built with) through a SnapshotIo,
 * which writes them when saving and reads them back, in the same
 * order, into a freshly constructed component of the same
 * configuration when loading. Code that really is one-sided stays
 * under io.loading(): unordered containers are written in sorted key
 * order so save -> load -> save is byte-identical, and derived
 * values are recomputed on load. Stateless components keep the
 * default, which saves nothing.
 *
 * saveState() and loadState() wrap snapshot(); callers use them, and
 * nested components are visited with SnapshotIo::component, which
 * goes through them too. They stay virtual so an interposer (a
 * timing tap around a trace source or a prefetcher) can forward or
 * drop its wrapped component's state.
 */
class Snapshottable
{
  public:
    virtual ~Snapshottable() = default;

    virtual void saveState(SnapshotWriter &w) const;
    virtual void loadState(SnapshotReader &r);

  protected:
    /**
     * The component's layout, in both directions. When saving it is
     * called on a const component (saveState is const) and must only
     * read its members.
     */
    virtual void snapshot(SnapshotIo &) {}
};

} // namespace asd

#endif // ASD_SNAPSHOT_SNAPSHOT_HPP
