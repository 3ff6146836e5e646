/**
 * @file
 * Minimal streaming JSON writer.  The sweep driver and benches use
 * it to emit machine-readable results (BENCH_*.json) alongside the
 * human-readable tables; it handles commas, nesting, string escaping
 * and round-trippable number formatting so callers never concatenate
 * JSON by hand.
 */

#ifndef QSURF_COMMON_JSON_H
#define QSURF_COMMON_JSON_H

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace qsurf {

/**
 * Streaming writer producing pretty-printed JSON.  Usage:
 *
 *   JsonWriter j(os);
 *   j.beginObject();
 *   j.field("name", "fig6");
 *   j.key("points"); j.beginArray();
 *   ... j.endArray();
 *   j.endObject();
 *
 * Nesting is tracked; mismatched begin/end panic().
 */
class JsonWriter
{
  public:
    /** @p compact drops all newlines and indentation (", " key
     *  separators stay), producing one-line documents — the sweep
     *  row stream and wire frames use it so one record is one
     *  flushable line. */
    explicit JsonWriter(std::ostream &os, bool compact = false)
        : os(os), compact(compact)
    {
    }
    ~JsonWriter();

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Emit the key of the next value inside an object. */
    void key(const std::string &name);

    void value(const std::string &v);
    void value(const char *v);
    void value(double v);
    void value(int64_t v);
    void value(uint64_t v);
    void value(int v);
    void value(bool v);
    void null();

    /** Shorthand for key() followed by value(). */
    template <typename T>
    void
    field(const std::string &name, const T &v)
    {
        key(name);
        value(v);
    }

    /** Escape and quote @p s as a JSON string literal. */
    static std::string quote(const std::string &s);

    /** Format @p v as a round-trippable JSON number literal. */
    static std::string number(double v);

  private:
    void separate();
    void indent();

    std::ostream &os;
    bool compact;
    /** One frame per open container: true = object, false = array. */
    std::vector<bool> stack;
    bool need_comma = false;
    bool after_key = false;
};

/**
 * A parsed JSON document node.  The parser exists so tools can read
 * back what the writers emit — the obs_check schema validator and
 * round-trip tests — not as a general-purpose JSON library: object
 * members keep insertion order, duplicate keys keep the last value.
 */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double num = 0;
    /** A String's text, or a Number's literal as written (so integer
     *  readers recover 64-bit values that `num` would round). */
    std::string str;
    std::vector<JsonValue> items; ///< Array elements.
    std::vector<std::pair<std::string, JsonValue>> members;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** @return the member named @p key, or null when absent (or when
     *  this is not an object). */
    const JsonValue *find(const std::string &key) const;

    /** Read a finite Number into @p out.  @return false when this
     *  is not a Number or not finite. */
    bool number(double &out) const;

    /**
     * Read an integral Number exactly into @p out.  @return false
     * when this is not a Number, not integral, or out of range for
     * the type (a negative literal never fits the unsigned one).
     */
    bool integer(int64_t &out) const;
    bool integer(uint64_t &out) const;
};

/**
 * Parse @p text as one JSON document (trailing whitespace allowed,
 * trailing content not).  Syntax errors fatal() with a line/column
 * description.
 */
JsonValue parseJson(const std::string &text);

} // namespace qsurf

#endif // QSURF_COMMON_JSON_H
