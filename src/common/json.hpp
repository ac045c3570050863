#ifndef ASD_COMMON_JSON_HPP
#define ASD_COMMON_JSON_HPP

/**
 * @file
 * Minimal JSON support used by the sweep runner and the diagnostic
 * examples: a streaming writer that tracks container nesting and
 * comma placement, and a small DOM (JsonValue / jsonParse) for
 * reading back our own records on resume (the tests also use it to
 * assert that everything we emit is parseable). No external
 * dependency.
 */

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace asd
{

/** @return @p text with JSON string escaping applied (no quotes). */
std::string jsonEscape(std::string_view text);

/**
 * Streaming JSON writer. Calls append to an internal buffer; commas
 * and key/value separators are inserted automatically, so callers
 * only describe structure:
 *
 *     JsonWriter w;
 *     w.beginObject().key("cycles").value(123).endObject();
 *     w.str(); // {"cycles":123}
 *
 * Doubles are emitted shortest-round-trip; non-finite doubles become
 * null (JSON has no NaN/Inf).
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Object member name; must be followed by exactly one value. */
    JsonWriter &key(std::string_view name);

    JsonWriter &value(std::string_view text);
    JsonWriter &value(const char *text);
    JsonWriter &value(double number);
    JsonWriter &value(std::uint64_t number);
    JsonWriter &value(std::int64_t number);
    JsonWriter &value(std::uint32_t number);
    JsonWriter &value(int number);
    JsonWriter &value(bool flag);
    JsonWriter &null();

    /** The document so far; complete once every container is closed. */
    const std::string &str() const { return out_; }

  private:
    void separate();

    std::string out_;
    std::vector<char> stack_;
    bool first_ = true;
    bool after_key_ = false;
};

/**
 * Parsed JSON value. Objects keep their members in document order
 * (duplicate keys keep the first occurrence on lookup), numbers keep
 * both an integer and a double reading so callers pick the lossless
 * one. Built by jsonParse(); accessors return nullptr / nullopt on
 * kind mismatch so lookups chain without exceptions:
 *
 *     const JsonValue *cycles = doc.find("metrics")->find("cycles");
 *     if (cycles && cycles->asU64()) ...
 */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }

    /** @return the bool payload, or nullopt unless kind is Bool. */
    std::optional<bool> asBool() const;

    /** @return the string payload (unescaped), if kind is String. */
    const std::string *asString() const;

    /**
     * @return the number as u64, if kind is Number and the literal
     * is a non-negative integer that fits.
     */
    std::optional<std::uint64_t> asU64() const;

    /**
     * @return the number as i64, if kind is Number and the literal
     * is an integer that fits.
     */
    std::optional<std::int64_t> asI64() const;

    /** @return the number as double, if kind is Number. */
    std::optional<double> asDouble() const;

    /** @return the elements, empty unless kind is Array. */
    const std::vector<JsonValue> &items() const;

    /** @return the members in document order, empty unless Object. */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const;

    /**
     * @return the value of object member @p name (first occurrence),
     * or nullptr when absent or when this is not an object.
     */
    const JsonValue *find(std::string_view name) const;

    static JsonValue makeNull();
    static JsonValue makeBool(bool flag);
    static JsonValue makeNumber(double value, std::int64_t integer,
                                bool integral);
    static JsonValue makeString(std::string text);
    static JsonValue makeArray(std::vector<JsonValue> items);
    static JsonValue
    makeObject(std::vector<std::pair<std::string, JsonValue>> members);

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::int64_t integer_ = 0;
    bool integral_ = false;
    std::string string_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/**
 * Parse @p text as exactly one JSON document (RFC 8259 grammar;
 * surrounding whitespace allowed, no trailing garbage, nesting beyond
 * a fixed recursion cap rejected). @return the DOM, or nullopt on any
 * syntax error.
 */
std::optional<JsonValue> jsonParse(std::string_view text);

} // namespace asd

#endif // ASD_COMMON_JSON_HPP
