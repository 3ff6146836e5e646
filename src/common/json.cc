#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "common/logging.h"

namespace qsurf {

JsonWriter::~JsonWriter()
{
    // Unclosed containers are a caller bug, but destructors must not
    // throw; emit a warning instead of panicking.
    if (!stack.empty())
        warn("JsonWriter destroyed with ", stack.size(),
             " unclosed container(s)");
}

std::string
JsonWriter::quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

std::string
JsonWriter::number(double v)
{
    // JSON has no Inf/NaN literals; map them to null.
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    // Shortest representation that round-trips a double.
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    double parsed = 0;
    for (int prec = 1; prec < 17; ++prec) {
        char shorter[40];
        std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
        std::sscanf(shorter, "%lf", &parsed);
        if (parsed == v)
            return shorter;
    }
    return buf;
}

void
JsonWriter::separate()
{
    if (after_key) {
        after_key = false;
        return;
    }
    if (need_comma)
        os << ",";
    if (!stack.empty() && !compact) {
        os << "\n";
        indent();
    }
}

void
JsonWriter::indent()
{
    for (size_t i = 0; i < stack.size(); ++i)
        os << "  ";
}

void
JsonWriter::beginObject()
{
    separate();
    os << "{";
    stack.push_back(true);
    need_comma = false;
}

void
JsonWriter::endObject()
{
    panicIf(stack.empty() || !stack.back(),
            "endObject() without a matching beginObject()");
    stack.pop_back();
    if (!compact) {
        os << "\n";
        indent();
    }
    os << "}";
    need_comma = true;
}

void
JsonWriter::beginArray()
{
    separate();
    os << "[";
    stack.push_back(false);
    need_comma = false;
}

void
JsonWriter::endArray()
{
    panicIf(stack.empty() || stack.back(),
            "endArray() without a matching beginArray()");
    stack.pop_back();
    if (!compact) {
        os << "\n";
        indent();
    }
    os << "]";
    need_comma = true;
}

void
JsonWriter::key(const std::string &name)
{
    panicIf(stack.empty() || !stack.back(),
            "key() outside of an object");
    separate();
    os << quote(name) << ": ";
    need_comma = false;
    after_key = true;
}

void
JsonWriter::value(const std::string &v)
{
    separate();
    os << quote(v);
    need_comma = true;
}

void
JsonWriter::value(const char *v)
{
    value(std::string(v));
}

void
JsonWriter::value(double v)
{
    separate();
    os << number(v);
    need_comma = true;
}

void
JsonWriter::value(int64_t v)
{
    separate();
    os << v;
    need_comma = true;
}

void
JsonWriter::value(uint64_t v)
{
    separate();
    os << v;
    need_comma = true;
}

void
JsonWriter::value(int v)
{
    value(static_cast<int64_t>(v));
}

void
JsonWriter::value(bool v)
{
    separate();
    os << (v ? "true" : "false");
    need_comma = true;
}

void
JsonWriter::null()
{
    separate();
    os << "null";
    need_comma = true;
}

// --------------------------------------------------------------- parser

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    // Last value wins on duplicate keys, matching what a rewriting
    // producer would have meant.
    const JsonValue *found = nullptr;
    for (const auto &[name, value] : members)
        if (name == key)
            found = &value;
    return found;
}

namespace {

/** JsonValue::integer() for either integer type. */
template <typename T>
bool
exactInteger(const JsonValue &v, T &out)
{
    if (!v.isNumber())
        return false;
    T parsed{};
    const char *end = v.str.data() + v.str.size();
    auto [ptr, ec] = std::from_chars(v.str.data(), end, parsed);
    if (ptr == end) {
        out = parsed;
        return ec == std::errc();
    }
    // A fraction or exponent ("5.0", "1e3"): exact through the double
    // only below 2^53, where the literal cannot have been rounded.
    if (!std::isfinite(v.num) || v.num != std::trunc(v.num)
        || std::fabs(v.num) >= 0x1p53
        || (std::is_unsigned_v<T> && v.num < 0))
        return false;
    out = static_cast<T>(v.num);
    return true;
}

} // namespace

bool
JsonValue::number(double &out) const
{
    if (!isNumber() || !std::isfinite(num))
        return false;
    out = num;
    return true;
}

bool
JsonValue::integer(int64_t &out) const
{
    return exactInteger(*this, out);
}

bool
JsonValue::integer(uint64_t &out) const
{
    return exactInteger(*this, out);
}

namespace {

/** Recursive-descent parser over the whole input string. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text(text) {}

    JsonValue
    parse()
    {
        JsonValue v = parseValue();
        skipWs();
        if (pos != text.size())
            fatal("json: trailing content at ", where());
        return v;
    }

  private:
    // where() rescans the input to locate pos, so every call below
    // guards it behind its failure condition (never pass it to the
    // eager fatalIf) — otherwise each token pays a scan and parsing
    // goes quadratic.
    std::string
    where() const
    {
        size_t line = 1;
        size_t col = 1;
        for (size_t i = 0; i < pos && i < text.size(); ++i) {
            if (text[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        return "line " + std::to_string(line) + ", column "
            + std::to_string(col);
    }

    void
    skipWs()
    {
        while (pos < text.size()
               && (text[pos] == ' ' || text[pos] == '\t'
                   || text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    char
    peek()
    {
        fatalIf(pos >= text.size(),
                "json: unexpected end of input");
        return text[pos];
    }

    void
    expect(char c)
    {
        if (pos >= text.size() || text[pos] != c)
            fatal("json: expected '", std::string(1, c), "' at ",
                  where());
        ++pos;
    }

    bool
    consumeLiteral(const char *lit)
    {
        size_t n = std::strlen(lit);
        if (text.compare(pos, n, lit) != 0)
            return false;
        pos += n;
        return true;
    }

    JsonValue
    parseValue()
    {
        skipWs();
        switch (peek()) {
          case '{':
            return parseObject();
          case '[':
            return parseArray();
          case '"': {
            JsonValue v;
            v.kind = JsonValue::Kind::String;
            v.str = parseString();
            return v;
          }
          case 't': {
            if (!consumeLiteral("true"))
                fatal("json: bad literal at ", where());
            JsonValue v;
            v.kind = JsonValue::Kind::Bool;
            v.boolean = true;
            return v;
          }
          case 'f': {
            if (!consumeLiteral("false"))
                fatal("json: bad literal at ", where());
            JsonValue v;
            v.kind = JsonValue::Kind::Bool;
            return v;
          }
          case 'n':
            if (!consumeLiteral("null"))
                fatal("json: bad literal at ", where());
            return JsonValue{};
          default:
            return parseNumber();
        }
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        skipWs();
        if (peek() == '}') {
            ++pos;
            return v;
        }
        for (;;) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            v.members.emplace_back(std::move(key), parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        skipWs();
        if (peek() == ']') {
            ++pos;
            return v;
        }
        for (;;) {
            v.items.push_back(parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            fatalIf(pos >= text.size(),
                    "json: unterminated string");
            char c = text[pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                if (static_cast<unsigned char>(c) < 0x20)
                    fatal("json: raw control character in string "
                          "at ",
                          where());
                out += c;
                continue;
            }
            fatalIf(pos >= text.size(),
                    "json: unterminated escape");
            char esc = text[pos++];
            switch (esc) {
              case '"':  out += '"'; break;
              case '\\': out += '\\'; break;
              case '/':  out += '/'; break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'n':  out += '\n'; break;
              case 'r':  out += '\r'; break;
              case 't':  out += '\t'; break;
              case 'u': {
                if (pos + 4 > text.size())
                    fatal("json: truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fatal("json: bad \\u escape at ", where());
                }
                // UTF-8 encode; the writers only emit \u00xx but
                // hand-written inputs may carry the full BMP.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80
                                             | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                fatal("json: bad escape '\\",
                      std::string(1, esc), "' at ", where());
            }
        }
    }

    JsonValue
    parseNumber()
    {
        size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        while (pos < text.size()
               && (std::isdigit(
                       static_cast<unsigned char>(text[pos]))
                   || text[pos] == '.' || text[pos] == 'e'
                   || text[pos] == 'E' || text[pos] == '+'
                   || text[pos] == '-'))
            ++pos;
        if (pos == start)
            fatal("json: unexpected character '",
                  std::string(1, text[start]), "' at ", where());
        std::string lit = text.substr(start, pos - start);
        char *end = nullptr;
        double v = std::strtod(lit.c_str(), &end);
        if (end != lit.c_str() + lit.size())
            fatal("json: bad number '", lit, "' at ", where());
        JsonValue out;
        out.kind = JsonValue::Kind::Number;
        out.num = v;
        out.str = std::move(lit);
        return out;
    }

    const std::string &text;
    size_t pos = 0;
};

} // namespace

JsonValue
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

} // namespace qsurf
