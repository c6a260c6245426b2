/**
 * @file
 * Minimal JSON document model for the observability layer.
 *
 * Builds and serializes the machine-readable artifacts this repository
 * emits (bench telemetry records, counter snapshots, Chrome trace
 * files) and parses them back so tests can validate the emitted bytes
 * rather than the in-memory structures. Not a general-purpose JSON
 * library: numbers are double (with a u64 fast path so counter values
 * survive exactly), object member order is insertion order, and inputs
 * are expected to be small (kilobytes, not gigabytes).
 */

#ifndef CDPU_OBS_JSON_H_
#define CDPU_OBS_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/types.h"

namespace cdpu::obs
{

/** One JSON value: null, bool, number, string, array, or object. */
class JsonValue
{
  public:
    enum class Type
    {
        null,
        boolean,
        number,
        string,
        array,
        object,
    };

    JsonValue() = default;
    JsonValue(bool value) : type_(Type::boolean), bool_(value) {}
    JsonValue(double value) : type_(Type::number), double_(value) {}
    JsonValue(u64 value)
        : type_(Type::number), double_(static_cast<double>(value)),
          uint_(value), isUint_(true)
    {}
    JsonValue(int value) : JsonValue(static_cast<double>(value)) {}
    JsonValue(std::string value)
        : type_(Type::string), string_(std::move(value))
    {}
    JsonValue(const char *value) : JsonValue(std::string(value)) {}

    static JsonValue
    object()
    {
        JsonValue value;
        value.type_ = Type::object;
        return value;
    }

    static JsonValue
    array()
    {
        JsonValue value;
        value.type_ = Type::array;
        return value;
    }

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::null; }
    bool isBool() const { return type_ == Type::boolean; }
    bool isNumber() const { return type_ == Type::number; }
    bool isString() const { return type_ == Type::string; }
    bool isArray() const { return type_ == Type::array; }
    bool isObject() const { return type_ == Type::object; }

    /** A number held exactly as a u64: built from one, or parsed from
     *  an unsigned integer literal that fits. */
    bool isU64() const { return isUint_; }

    bool asBool() const { return bool_; }
    double asDouble() const { return double_; }
    /** Exact for values built from u64; rounded for other numbers. */
    u64
    asU64() const
    {
        return isUint_ ? uint_ : static_cast<u64>(double_);
    }
    const std::string &asString() const { return string_; }

    /** Sets (or replaces) an object member; returns *this to chain. */
    JsonValue &set(const std::string &key, JsonValue value);

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;
    bool has(const std::string &key) const { return find(key); }

    /** Member access; a shared null value when absent. */
    const JsonValue &at(const std::string &key) const;

    /** Appends to an array. */
    void push(JsonValue value);

    /** Array length / object member count (0 for scalars). */
    std::size_t size() const;

    /** Array element access. @pre index < size(). */
    const JsonValue &at(std::size_t index) const;

    /** Object members in insertion order. */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return members_;
    }

    /** Array elements. */
    const std::vector<JsonValue> &items() const { return items_; }

    /**
     * Serializes to JSON text. @p indent > 0 pretty-prints with that
     * many spaces per level; 0 emits a single line.
     */
    std::string dump(int indent = 0) const;

    /** Parses @p text; the whole input must be one JSON document. */
    static Result<JsonValue> parse(std::string_view text);

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_ = Type::null;
    bool bool_ = false;
    double double_ = 0;
    u64 uint_ = 0;
    bool isUint_ = false;
    std::string string_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/** Escapes @p text as a JSON string literal, including the quotes. */
std::string jsonEscape(std::string_view text);

} // namespace cdpu::obs

#endif // CDPU_OBS_JSON_H_
