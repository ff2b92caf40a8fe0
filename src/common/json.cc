#include "common/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace cais
{

// --- Writer ----------------------------------------------------------

void
JsonWriter::separate()
{
    if (pendingKey) {
        pendingKey = false;
        return;
    }
    if (!needComma.empty()) {
        if (needComma.back())
            out += ',';
        needComma.back() = true;
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    out += '{';
    needComma.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    needComma.pop_back();
    out += '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    out += '[';
    needComma.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    needComma.pop_back();
    out += ']';
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    separate();
    out += '"';
    out += escape(k);
    out += "\":";
    pendingKey = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    separate();
    out += '"';
    out += escape(v);
    out += '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    separate();
    if (!std::isfinite(v))
        v = 0.0; // keep the document valid JSON
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    separate();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    out += buf;
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    separate();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(v));
    out += buf;
    return *this;
}

JsonWriter &
JsonWriter::value(int v)
{
    return value(static_cast<std::int64_t>(v));
}

JsonWriter &
JsonWriter::value(bool v)
{
    separate();
    out += v ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    separate();
    out += "null";
    return *this;
}

std::string
JsonWriter::escape(std::string_view s)
{
    std::string r;
    r.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            r += "\\\"";
            break;
          case '\\':
            r += "\\\\";
            break;
          case '\n':
            r += "\\n";
            break;
          case '\r':
            r += "\\r";
            break;
          case '\t':
            r += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c) & 0xff);
                r += buf;
            } else {
                r += c;
            }
        }
    }
    return r;
}

// --- Parser ----------------------------------------------------------

const JsonValue *
JsonValue::find(const std::string &k) const
{
    for (const auto &[name, v] : members)
        if (name == k)
            return &v;
    return nullptr;
}

double
JsonValue::getNumber(const std::string &k, double def) const
{
    const JsonValue *v = find(k);
    return v && v->isNumber() ? v->numVal : def;
}

std::string
JsonValue::getString(const std::string &k, const std::string &def) const
{
    const JsonValue *v = find(k);
    return v && v->isString() ? v->strVal : def;
}

namespace
{

/** Recursive-descent JSON parser over a flat character buffer. */
struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    std::string error;

    explicit Parser(const std::string &t) : text(t) {}

    bool
    fail(const std::string &msg)
    {
        error = "offset " + std::to_string(pos) + ": " + msg;
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    expect(char c)
    {
        if (pos >= text.size() || text[pos] != c)
            return fail(std::string("expected '") + c + "'");
        ++pos;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!expect('"'))
            return false;
        out.clear();
        while (pos < text.size()) {
            char c = text[pos++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos >= text.size())
                    return fail("truncated escape");
                char e = text[pos++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    if (pos + 4 > text.size())
                        return fail("truncated \\u escape");
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
                            return fail("bad \\u escape digit");
                    }
                    // The writer only emits \u for control chars;
                    // represent others as '?' rather than UTF-8
                    // encode (metric names are ASCII).
                    out += code < 0x80 ? static_cast<char>(code) : '?';
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
            } else {
                out += c;
            }
        }
        return fail("unterminated string");
    }

    bool
    parseValue(JsonValue &v)
    {
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        char c = text[pos];
        if (c == '{') {
            ++pos;
            v.kind = JsonValue::Kind::object;
            skipWs();
            if (pos < text.size() && text[pos] == '}') {
                ++pos;
                return true;
            }
            while (true) {
                skipWs();
                std::string k;
                if (!parseString(k))
                    return false;
                skipWs();
                if (!expect(':'))
                    return false;
                JsonValue member;
                if (!parseValue(member))
                    return false;
                v.members.emplace_back(std::move(k),
                                       std::move(member));
                skipWs();
                if (pos < text.size() && text[pos] == ',') {
                    ++pos;
                    continue;
                }
                return expect('}');
            }
        }
        if (c == '[') {
            ++pos;
            v.kind = JsonValue::Kind::array;
            skipWs();
            if (pos < text.size() && text[pos] == ']') {
                ++pos;
                return true;
            }
            while (true) {
                JsonValue elem;
                if (!parseValue(elem))
                    return false;
                v.elems.push_back(std::move(elem));
                skipWs();
                if (pos < text.size() && text[pos] == ',') {
                    ++pos;
                    continue;
                }
                return expect(']');
            }
        }
        if (c == '"') {
            v.kind = JsonValue::Kind::string;
            return parseString(v.strVal);
        }
        if (text.compare(pos, 4, "true") == 0) {
            v.kind = JsonValue::Kind::boolean;
            v.boolVal = true;
            pos += 4;
            return true;
        }
        if (text.compare(pos, 5, "false") == 0) {
            v.kind = JsonValue::Kind::boolean;
            v.boolVal = false;
            pos += 5;
            return true;
        }
        if (text.compare(pos, 4, "null") == 0) {
            v.kind = JsonValue::Kind::null;
            pos += 4;
            return true;
        }
        if (c == '-' || (c >= '0' && c <= '9')) {
            std::size_t start = pos;
            if (c == '-')
                ++pos;
            while (pos < text.size() &&
                   (std::isdigit(static_cast<unsigned char>(
                        text[pos])) ||
                    text[pos] == '.' || text[pos] == 'e' ||
                    text[pos] == 'E' || text[pos] == '+' ||
                    text[pos] == '-'))
                ++pos;
            v.kind = JsonValue::Kind::number;
            v.numVal = std::strtod(text.c_str() + start, nullptr);
            return true;
        }
        return fail("unexpected character");
    }
};

} // namespace

bool
jsonParse(const std::string &text, JsonValue &out, std::string &error)
{
    // Reset the node: parseValue appends members/elements, so a
    // reused JsonValue would otherwise merge two documents.
    out = JsonValue{};
    Parser p(text);
    if (!p.parseValue(out)) {
        error = p.error;
        return false;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        error = "offset " + std::to_string(p.pos) +
                ": trailing content after document";
        return false;
    }
    return true;
}

} // namespace cais
