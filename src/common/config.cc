#include "common/config.hh"

#include <cstdio>
#include <cstdlib>

namespace cais
{

namespace
{

/**
 * A malformed value on the command line is a usage error: report it
 * as fatal() does, but exit 2 like every other front-door rejection.
 */
[[noreturn]] void
badValue(const std::string &key, const std::string &value,
         const char *what)
{
    std::fprintf(stderr, "fatal: parameter %s=%s is not %s\n",
                 key.c_str(), value.c_str(), what);
    std::exit(2);
}

} // namespace

Params
Params::fromArgs(int argc, char **argv)
{
    Params p;
    for (int i = 1; i < argc; ++i)
        p.parseToken(argv[i]);
    return p;
}

bool
Params::parseToken(const std::string &token)
{
    // Accept "--key=value" as a synonym for "key=value" so the bench
    // flags read naturally on the command line.
    std::size_t start = 0;
    while (start < token.size() && token[start] == '-')
        ++start;
    auto eq = token.find('=', start);
    if (eq == std::string::npos || eq == start)
        return false;
    set(token.substr(start, eq - start), token.substr(eq + 1));
    return true;
}

void
Params::set(const std::string &key, const std::string &value)
{
    if (!kv.count(key))
        order.push_back(key);
    kv[key] = value;
}

bool
Params::has(const std::string &key) const
{
    return kv.count(key) != 0;
}

std::string
Params::getString(const std::string &key, const std::string &def) const
{
    auto it = kv.find(key);
    return it == kv.end() ? def : it->second;
}

std::int64_t
Params::getInt(const std::string &key, std::int64_t def) const
{
    auto it = kv.find(key);
    if (it == kv.end())
        return def;
    char *end = nullptr;
    std::int64_t v = std::strtoll(it->second.c_str(), &end, 0);
    if (end == it->second.c_str() || *end != '\0')
        badValue(key, it->second, "an integer");
    return v;
}

double
Params::getDouble(const std::string &key, double def) const
{
    auto it = kv.find(key);
    if (it == kv.end())
        return def;
    char *end = nullptr;
    double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        badValue(key, it->second, "a number");
    return v;
}

bool
Params::getBool(const std::string &key, bool def) const
{
    auto it = kv.find(key);
    if (it == kv.end())
        return def;
    const std::string &v = it->second;
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    badValue(key, v, "a boolean");
}

} // namespace cais
