/**
 * @file
 * Minimal JSON support shared by the observability layer: a streaming
 * writer (used by the metrics report and the Perfetto trace exporter)
 * and a small recursive-descent parser (used by cais_report and the
 * report round-trip tests).
 *
 * The writer emits deterministic output: doubles are printed with
 * "%.17g" (shortest exact round-trip for IEEE doubles is not needed;
 * byte-stable output across runs is), and non-finite doubles are
 * written as 0 so the emitted document is always valid JSON.
 */

#ifndef CAIS_COMMON_JSON_HH
#define CAIS_COMMON_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace cais
{

/** Streaming JSON writer with automatic comma/nesting management. */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Object member key; must be followed by a value or container. */
    JsonWriter &key(std::string_view k);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(int v);
    JsonWriter &value(bool v);
    JsonWriter &null();

    /** key(k) + value(v) in one call. */
    template <typename T>
    JsonWriter &
    field(const std::string &k, T v)
    {
        key(k);
        return value(v);
    }

    /** The document so far. */
    const std::string &str() const { return out; }

    /** Escape @p s for embedding inside a JSON string literal. */
    static std::string escape(std::string_view s);

  private:
    /** Emit a comma if the current container already has a member. */
    void separate();

    std::string out;
    /** Stack of "current container needs a comma before next item". */
    std::vector<bool> needComma;
    bool pendingKey = false;
};

/** A parsed JSON document node. */
class JsonValue
{
  public:
    enum class Kind
    {
        null,
        boolean,
        number,
        string,
        array,
        object,
    };

    Kind kind = Kind::null;
    bool boolVal = false;
    double numVal = 0.0;
    std::string strVal;
    std::vector<JsonValue> elems;
    /** Insertion-ordered object members. */
    std::vector<std::pair<std::string, JsonValue>> members;

    bool isNull() const { return kind == Kind::null; }
    bool isNumber() const { return kind == Kind::number; }
    bool isString() const { return kind == Kind::string; }
    bool isArray() const { return kind == Kind::array; }
    bool isObject() const { return kind == Kind::object; }

    /** Object member by key, or nullptr. */
    const JsonValue *find(const std::string &k) const;

    /** Member as number/string with a default when absent/mistyped. */
    double getNumber(const std::string &k, double def = 0.0) const;
    std::string getString(const std::string &k,
                          const std::string &def = "") const;
};

/**
 * Parse a JSON document. On failure returns false and sets @p error
 * to "offset N: message". Accepts any JSON value at the top level.
 */
bool jsonParse(const std::string &text, JsonValue &out,
               std::string &error);

} // namespace cais

#endif // CAIS_COMMON_JSON_HH
